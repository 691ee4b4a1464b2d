// Command sljserve exposes the classification pipeline as an HTTP JSON
// service: POST /rpc with {"method": ..., "params": ...} envelopes for
// classify-clip, score and evaluate-corpus, with the full /debug
// observability surface (metrics, health, timeseries, errors, pprof)
// mounted on the same port. Admission control sheds load with 503 once
// the worker budget is spent or the SLO health verdict degrades to
// failing, and SIGINT/SIGTERM drains in-flight requests before exit.
//
// Usage:
//
//	sljserve -data data/ [-addr :8080] [-workers 0]
//	sljserve -model model.gob -data data/
//
// Without -model the classifier is trained in-process on the dataset's
// training split. -data doubles as the request path root: a request's
// "dir" or "model" field resolves underneath it and may not escape.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sljserve: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address (port 0 for ephemeral)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for harnesses using port 0)")
		data       = flag.String("data", "", "dataset directory written by sljgen; doubles as the request path root")
		model      = flag.String("model", "", "trained model from sljtrain (trains in-process from -data when empty)")
		workers    = flag.Int("workers", 0, "engine workers = total admission budget (0 or -1 all CPUs)")
		maxBody    = flag.Int64("max-body", serve.DefaultMaxBody, "request body cap in bytes")
		modelCache = flag.Int("model-cache", 4, "per-request model registry capacity (engines cached by content hash)")
		drain      = flag.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful-shutdown bound for in-flight requests")
		sample     = flag.Duration("sample-interval", time.Second, "metrics sampling and health re-evaluation period")
		logPath    = flag.String("log", "", "structured JSONL event log: file path, or - for stderr (disabled when empty)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	)
	flag.Parse()
	if *data == "" && *model == "" {
		flag.Usage()
		os.Exit(2)
	}

	st, err := serve.NewStack(serve.StackConfig{
		SampleInterval: *sample,
		LogPath:        *logPath,
		LogLevel:       *logLevel,
	})
	if err != nil {
		log.Fatal(err)
	}

	opts := []slj.Option{slj.WithObservability(st.Scope)}
	eng, err := slj.NewEngine(*workers, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			log.Fatal(err)
		}
		err = eng.LoadModel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		src, err := dataset.OpenDir(filepath.Join(*data, "train"))
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.TrainSource(src); err != nil {
			log.Fatal(err)
		}
		log.Printf("trained in-process on %s/train", *data)
	}

	srv, err := serve.New(serve.Config{
		Engine:        eng,
		DataRoot:      *data,
		MaxBody:       *maxBody,
		ModelCacheCap: *modelCache,
		EngineOptions: opts,
		Obs:           st,
		DrainTimeout:  *drain,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (workers %d)", srv.Addr(), eng.Workers())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("%s: draining (up to %s) and shutting down", got, *drain)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	log.Print("shutdown complete")
}
