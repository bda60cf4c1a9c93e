package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Span names. Every span is recorded by the benchmark around one call it
// makes into a layer's public API; the program itself is not instrumented.
const (
	spanFrameBuild   = iota // generate a frame's ops and advance the shadow model
	spanClientDo            // copnet.Batch.Do: one frame over TLS/HTTP/2
	spanVerify              // check the frame's gets against the shadow model
	spanShardWindow         // shard.Batched group window, NewGroup .. Wait
	spanMemctrlRead         // memctrl.Controller.ReadInto
	spanMemctrlWrite        // memctrl.Controller.Write
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.frame_build", "copnet.Batch.Do", "bench.verify",
	"shard.window", "memctrl.ReadInto", "memctrl.Write",
}

type span struct {
	name  uint8
	tid   uint8
	start int64 // ns since the log's epoch
	dur   int64
}

// spanLog keeps one goroutine's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced rungs pay one nil check per call.
type spanLog struct {
	epoch time.Time
	tid   uint8
	spans []span
}

func newSpanLog(epoch time.Time, tid int) *spanLog {
	return &spanLog{epoch: epoch, tid: uint8(tid)}
}

func (l *spanLog) add(name int, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: uint8(name), tid: l.tid,
		start: int64(start.Sub(l.epoch)), dur: int64(dur)})
}

// durations returns the sorted durations of every span called name.
func durations(logs []*spanLog, name int) []int64 {
	var ds []int64
	for _, l := range logs {
		for _, s := range l.spans {
			if int(s.name) == name {
				ds = append(ds, s.dur)
			}
		}
	}
	slices.Sort(ds)
	return ds
}

// spanP50 is the exact median (lower middle) duration of the named
// spans, in ns.
func spanP50(logs []*spanLog, name int) float64 {
	ds := durations(logs, name)
	if len(ds) == 0 {
		return 0
	}
	return float64(ds[(len(ds)-1)/2])
}

// writeChromeTrace writes the first perName spans of each name, per rung,
// as Chrome trace-event JSON (load it in Perfetto or chrome://tracing).
// Rungs become processes; a rung's goroutines become its threads.
func writeChromeTrace(path string, rungs []string, logs [][]*spanLog, perName int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
	}
	for pid, rung := range rungs {
		sep()
		fmt.Fprintf(w, `{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, pid+1, rung)
		var kept [numSpanNames]int
		for _, l := range logs[pid] {
			for _, s := range l.spans {
				if kept[s.name] >= perName {
					continue
				}
				kept[s.name]++
				sep()
				fmt.Fprintf(w, `{"ph":"X","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f}`,
					spanNames[s.name], pid+1, s.tid, float64(s.start)/1e3, float64(s.dur)/1e3)
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
