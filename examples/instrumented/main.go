// Instrumented-source demo — the full loop of paper Section 4.1.1 running
// against a committed dictionary: dataxceiver.go was rewritten once by
//
//	go run ./cmd/saad-instrument -dict examples/instrumented/saad-dict.json \
//	    -hitpkg saadlog -write examples/instrumented
//
// and both the rewritten source and the dictionary are committed. Each log
// statement reports its pre-assigned log-point id to the task execution
// tracker through the saadlog shim; ending the task emits a synopsis whose
// frequency vector this program prints back through the dictionary.
//
// cmd/saad-instrument's tests hold the committed pair together with
// `saad-instrument -check`: unique ids, ids known to the dictionary,
// templates unchanged.
//
// Run with: go run ./examples/instrumented
package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"saad/examples/instrumented/saadlog"
	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/tracker"
)

//go:embed saad-dict.json
var dictJSON []byte

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "instrumented:", err)
		os.Exit(1)
	}
}

func run() error {
	dict, err := logpoint.ReadDictionary(bytes.NewReader(dictJSON))
	if err != nil {
		return err
	}
	stageID, ok := dict.StageByName("DataXceiver")
	if !ok {
		return fmt.Errorf("dictionary has no DataXceiver stage")
	}

	ch := stream.NewChannel(16)
	tr := tracker.New(1, ch)

	// One task per block, dispatcher-worker style. The demo silences the
	// actual log output — SAAD's point is that the synopsis carries the
	// signal, not the log text.
	log.SetOutput(io.Discard)
	start := time.Now()
	task := tr.Begin(stageID, start)
	saadlog.Bind(task, time.Now)
	d := &DataXceiver{blockID: 42}
	d.Run([][]byte{{1, 2, 3}, {}, {4, 5}, nil, {6}})
	task.End(time.Now())
	log.SetOutput(os.Stderr)

	for _, s := range ch.Drain() {
		fmt.Printf("synopsis: stage=%s host=%d task=%d points=%d\n",
			dict.StageName(s.Stage), s.Host, s.TaskID, len(s.Points))
		for _, pc := range s.Points {
			p, err := dict.Point(pc.Point)
			if err != nil {
				return err
			}
			fmt.Printf("  L%-3d x%-3d [%s] %q\n", pc.Point, pc.Count, p.Level, p.Template)
		}
	}
	return nil
}
