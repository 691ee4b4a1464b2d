// Command sljtrace converts the span events of a JSONL event log (the
// -log output of the instrumented binaries at -log-level debug) into
// Chrome trace-event JSON that loads directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Each clip becomes its
// own named thread row; each stage span becomes a complete ("X") event
// on that row. Log lines that are not spans are skipped.
//
// Usage:
//
//	sljeval -log events.jsonl -log-level debug ...
//	sljtrace events.jsonl > trace.json
//	sljtrace -out trace.json events.jsonl
//	sljtrace < events.jsonl        # stdin → stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sljtrace: ")

	out := flag.String("out", "", "write the trace-event JSON here instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: sljtrace [-out trace.json] [events.jsonl]\n\nconverts the span events of a debug-level -log JSONL file (stdin when omitted) to Chrome trace-event JSON for Perfetto\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	if err := obs.WriteTraceEvents(in, w); err != nil {
		log.Fatal(err)
	}
}
