package main

import (
	"fmt"
	"os"
	"time"

	"bolt/internal/codegen"
	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tunelog"
)

// compileLayers accumulates the host time of each compile-path layer
// call, timed from outside.
type compileLayers struct {
	rebatch, load, optimize, codegen, save time.Duration
	// nodes is the graph's node count after relay.Optimize.
	nodes int
	// logEntries and logBytes size the tuning log after the last save.
	logEntries int
	logBytes   int64
}

// compileOut is what one compile produced: the module and the modeled
// tuning time (profiling plus the module-build charge), exactly as
// bolt.CompileResult reports them.
type compileOut struct {
	module     *rt.Module
	tuningTime time.Duration
}

// compileTraced runs the sequence bolt.Compile runs for a templated
// compile against a cache file — tunelog Load, relay.Optimize,
// codegen.Compile with a profiler against the log, tunelog Save — and
// wraps each call in a span under a root span named label.
func compileTraced(sp *spanLog, req int64, label string, g *relay.Graph, dev *gpu.Device, cacheFile string, jobs int, lt *compileLayers) (compileOut, error) {
	t0 := time.Now()
	track := "compile"
	log := tunelog.New()
	d, err := sp.call("tunelog.Load", track, label, req, func() error {
		f, err := os.Open(cacheFile)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		defer f.Close()
		return log.Load(f)
	})
	lt.load += d
	if err != nil {
		return compileOut{}, fmt.Errorf("loading %s: %w", cacheFile, err)
	}
	d, err = sp.call("relay.Optimize", track, label, req, func() error { return relay.Optimize(g, dev) })
	lt.optimize += d
	if err != nil {
		return compileOut{}, err
	}
	lt.nodes += len(g.Nodes)
	var clock gpu.Clock
	var m *rt.Module
	d, err = sp.call("codegen.Compile", track, label, req, func() error {
		var err error
		m, err = codegen.Compile(g, dev, codegen.Options{
			Tuner:    codegen.TunerBolt,
			Profiler: profiler.New(dev, &clock),
			Log:      log,
			Jobs:     jobs,
		})
		return err
	})
	lt.codegen += d
	if err != nil {
		return compileOut{}, err
	}
	clock.Advance(gpu.ModuleBuildSeconds(m.TemplatedKernels()))
	d, err = sp.call("tunelog.Save", track, label, req, func() error { return saveLog(log, cacheFile) })
	lt.save += d
	if err != nil {
		return compileOut{}, err
	}
	lt.logEntries = log.Len()
	if sp != nil {
		sp.add(label, track, "", req, sp.since(t0), sp.since(time.Now()), obs.Arg{Key: "measurements", Val: m.Tuning.Measurements})
	}
	return compileOut{module: m, tuningTime: clock.ElapsedDuration()}, nil
}

// saveLog writes the log atomically, as bolt.Compile does.
func saveLog(log *tunelog.Log, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := log.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
