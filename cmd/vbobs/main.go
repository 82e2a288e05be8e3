// Command vbobs analyzes a recorded trace offline: it reads the JSONL
// event stream a -trace sink wrote (or /events served) and prints
// per-type, per-app and per-site aggregates, the site×site migration flow
// matrix, exact solver duration percentiles, and the solver's pivot,
// refactorization and eta-chain totals.
//
// The per-type totals are accumulated with the same operations, in the
// same order, as the live tracer's TypeStats, so on a complete stream
// they reconcile bit-exactly with the run's manifest.
//
// Usage:
//
//	vbsched -policy MIP -trace run.jsonl
//	vbobs run.jsonl
//	vbobs -json run.jsonl | jq .types
//	curl -s localhost:8090/events | vbobs -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	vb "github.com/vbcloud/vb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbobs: ")

	jsonOut := flag.Bool("json", false, "emit the analysis as JSON instead of text")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vbobs [-json] <trace.jsonl | ->")
		os.Exit(2)
	}

	var in io.Reader
	if path := flag.Arg(0); path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	events, err := vb.ReadTraceEvents(in)
	if err != nil {
		// A truncated tail (crash mid-write) still leaves a usable prefix:
		// analyze what decoded, but say so and fail the exit code.
		log.Printf("warning: %v; analyzing the %d events before it", err, len(events))
	}
	if len(events) == 0 {
		log.Fatal("no events decoded")
	}

	a := vb.AnalyzeTrace(events)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(a); eerr != nil {
			log.Fatal(eerr)
		}
	} else if werr := a.WriteText(os.Stdout); werr != nil {
		log.Fatal(werr)
	}
	if err != nil {
		os.Exit(1)
	}
}
