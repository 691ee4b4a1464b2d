package imaging

// The previous kernels, for the external oracle tests.
var (
	BoxAverageRGBRef      = boxAverageRGBRef
	MedianFilterBinaryRef = medianFilterBinaryRef
	ComponentsRef         = componentsRef
	LargestComponentRef   = largestComponentRef
)
