package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bolt/internal/obs"
)

// spanLog keeps host-clock spans in memory and writes them at the end
// of the run as Chrome trace-event JSON (the obs exporter, so Perfetto
// opens the file). Span times are host seconds since the run started.
// A nil *spanLog records nothing: untraced runs pass nil.
type spanLog struct {
	tr  *obs.Tracer
	pid int
	t0  time.Time

	mu    sync.Mutex
	shard *obs.Shard
	n     int
}

// shardSpans stays below the obs shard capacity, so no span is dropped.
const shardSpans = 60000

func newSpanLog(workload string) *spanLog {
	tr := obs.NewTracer()
	return &spanLog{tr: tr, pid: tr.RegisterProcess("perfbench " + workload), t0: time.Now()}
}

// since is the host offset of t from the start of the run.
func (s *spanLog) since(t time.Time) time.Duration { return t.Sub(s.t0) }

// add records one span. parent names the enclosing span (empty for a
// root); req groups the spans of one request or one compile.
func (s *spanLog) add(name, track, parent string, req int64, start, end time.Duration, args ...obs.Arg) {
	if s == nil {
		return
	}
	if parent != "" {
		args = append(args, obs.Arg{Key: "parent", Val: parent})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shard == nil || s.n == shardSpans {
		s.shard, s.n = s.tr.NewShard(), 0
	}
	s.n++
	s.shard.Emit(obs.Span{Name: name, Cat: "host", Proc: s.pid, Track: track, Req: req,
		Start: start.Seconds(), Dur: (end - start).Seconds(), Args: args})
}

// call runs f inside a span and returns f's host duration.
func (s *spanLog) call(name, track, parent string, req int64, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	if s != nil {
		s.add(name, track, parent, req, s.since(t0), s.since(t1))
	}
	return t1.Sub(t0), err
}

// write exports the spans to outDir/<workload>.trace.json and returns
// the path and span count.
func (s *spanLog) write(workload string) (string, int, error) {
	if d := s.tr.Dropped(); d > 0 {
		return "", 0, fmt.Errorf("span buffer dropped %d spans", d)
	}
	path := filepath.Join(outDir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriter(f)
	if err := s.tr.WriteJSON(w); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("exporting spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return path, s.tr.Len(), nil
}
