package parallel

import (
	"testing"

	"repro/internal/obs"
)

func TestMapOrderedCountsItems(t *testing.T) {
	st := &obs.ParallelStats{}
	SetStats(st)
	defer SetStats(nil)

	items := make([]int, 23)
	for _, w := range []int{1, 4} {
		before := st.Items.Value()
		_, err := MapOrdered(w, items, func(i int, v int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Items.Value() - before; got != int64(len(items)) {
			t.Errorf("workers=%d: claimed %d items, want %d", w, got, len(items))
		}
	}
	if st.Workers.Value() < 4 {
		t.Errorf("worker high-water = %d, want >= 4", st.Workers.Value())
	}
}
