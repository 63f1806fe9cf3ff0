package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"bolt"
	"bolt/internal/models"
	"bolt/internal/relay"
	"bolt/internal/rt"
)

// zooBatch is the Figure-10 batch size; the models take 224x224 images.
const zooBatch = 32

// zooModels are the six CNNs of the paper's Figure 10.
var zooModels = []struct {
	name  string
	build func() *relay.Graph
}{
	{"VGG-16", func() *relay.Graph { return models.VGG(16, zooBatch) }},
	{"VGG-19", func() *relay.Graph { return models.VGG(19, zooBatch) }},
	{"ResNet-18", func() *relay.Graph { return models.ResNet(18, zooBatch) }},
	{"ResNet-50", func() *relay.Graph { return models.ResNet(50, zooBatch) }},
	{"RepVGG-A0", func() *relay.Graph { return models.RepVGG("A0", zooBatch, models.RepVGGOptions{}) }},
	{"RepVGG-B0", func() *relay.Graph { return models.RepVGG("B0", zooBatch, models.RepVGGOptions{}) }},
}

// zooSetups is how many times set-up runs; setup_s is their median.
const zooSetups = 3

// buildZoo constructs the six source graphs. Compiles work on
// relay.Rebatch copies (which share the weights), so the sources stay
// pristine across passes.
func buildZoo() []*relay.Graph {
	gs := make([]*relay.Graph, len(zooModels))
	for i, m := range zooModels {
		gs[i] = m.build()
	}
	return gs
}

// zooCompile is one model's compile in one pass. It keeps figures, not
// the module, so a run holds at most one compiled model at a time.
type zooCompile struct {
	wall   time.Duration
	allocs uint64
	stats  rt.TuningStats
	tuning time.Duration
	// simTime is the module's modeled batch inference time (s).
	simTime  float64
	launches int
	// groups holds the module's cutlass group figures (traced runs).
	groups map[string]float64
}

// zooPass compiles every model once against cacheFile. With sp set it
// runs the traced compile path instead of bolt.Compile, accumulating
// layer times into lt.
func zooPass(srcs []*relay.Graph, cacheFile string, jobs int, sp *spanLog, pass string, lt *compileLayers) ([]zooCompile, error) {
	out := make([]zooCompile, len(srcs))
	for i, src := range srcs {
		var g *relay.Graph
		d, err := sp.call("relay.Rebatch", "compile", "", 0, func() error {
			var err error
			g, err = relay.Rebatch(src, zooBatch)
			return err
		})
		if err != nil {
			return nil, err
		}
		if lt != nil {
			lt.rebatch += d
		}
		a0 := mallocs()
		t0 := time.Now()
		var c compileOut
		if sp == nil {
			var r *bolt.CompileResult
			if r, err = bolt.Compile(g, bolt.T4(), bolt.Options{CacheFile: cacheFile, Jobs: jobs}); err == nil {
				c = compileOut{module: r.Module, tuningTime: r.TuningTime}
			}
		} else {
			c, err = compileTraced(sp, int64(i+1), pass+" "+zooModels[i].name, g, bolt.T4(), cacheFile, jobs, lt)
		}
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s pass, %s: %w", pass, zooModels[i].name, err)
		}
		out[i] = zooCompile{wall: wall, allocs: mallocs() - a0, stats: c.module.Tuning, tuning: c.tuningTime,
			simTime: c.module.Time(), launches: c.module.LaunchCount()}
		if sp != nil {
			out[i].groups = kernelGroups([]*rt.Module{c.module}, nil, zooBatch)
		}
	}
	return out, nil
}

// zooIteration is one cold pass into an empty log plus one warm pass
// that reads it back.
type zooIteration struct{ cold, warm []zooCompile }

// zooSim sums the modeled figures of a cold pass: tuning time over the
// zoo (the paper's "< 20 min" claim) and batch-32 inference time (the
// Figure-10 claim).
func zooSim(cold []zooCompile) (tuningS, inferMS float64) {
	for _, c := range cold {
		tuningS += c.tuning.Seconds()
		inferMS += c.simTime * 1e3
	}
	return tuningS, inferMS
}

// checkZoo verifies an iteration: the warm pass measures nothing and
// hits the log for every workload, and every model's modeled inference
// time equals the cold pass's and the first iteration's.
func checkZoo(rep *report, it, first zooIteration) {
	for i := range it.cold {
		name := zooModels[i].name
		w, c := it.warm[i], it.cold[i]
		if w.stats.Measurements != 0 || w.stats.CacheHits != w.stats.UniqueWorkloads {
			rep.fail("%s warm compile: %d measurements, %d/%d cache hits", name, w.stats.Measurements, w.stats.CacheHits, w.stats.UniqueWorkloads)
		}
		if w.simTime != c.simTime {
			rep.fail("%s warm compile: modeled inference %v s, cold pass %v s", name, w.simTime, c.simTime)
		}
		if f := first.cold[i]; c.simTime != f.simTime || c.tuning != f.tuning {
			rep.fail("%s cold compile not repeatable: %v s / %v, first iteration %v s / %v",
				name, c.simTime, c.tuning, f.simTime, f.tuning)
		}
	}
}

// runZoo is the compile-zoo workload: nothing executes, so host time
// goes to the tuning log and the graph passes.
func runZoo(cfg runConfig) (*report, error) {
	// The zoo's lazily initialized weights are 1.3 GB of untouched zero
	// pages. Under the default GOGC they would set a 2.6 GB heap goal,
	// and every page the garbage then recycles must be zeroed, so the
	// resident set would swell to that goal; a low GOGC keeps the
	// recycled headroom, and peak_rss_mb, near the live data.
	debug.SetGCPercent(25)
	start := time.Now()
	rep := &report{vals: map[string]float64{}}
	// Every set-up builds fresh graphs into fresh memory: the builds stay
	// alive until all are timed, so none recycles (and zeroes) another's
	// pages and the repetitions cost the same.
	builds := make([][]*relay.Graph, zooSetups)
	setups := make([]float64, zooSetups)
	for i := range setups {
		t0 := time.Now()
		builds[i] = buildZoo()
		setups[i] = time.Since(t0).Seconds()
	}
	srcs := builds[zooSetups-1]
	builds = nil
	rep.vals["setup_s"] = median(setups)

	measure := max(cfg.seconds-time.Since(start).Seconds(), cfg.seconds/2)
	var sp *spanLog
	if cfg.trace {
		// The traced run measures untraced for the first half, so the
		// tracing overhead is the difference of the two halves.
		measure /= 2
	}
	untraced, err := zooLoop(rep, srcs, cfg.jobs, measure, nil, nil)
	if err != nil {
		return nil, err
	}
	e2e := zooMetrics(rep, untraced)
	if !cfg.trace {
		for k, v := range e2e {
			rep.vals[k] = v
		}
		rep.vals["peak_rss_mb"] = peakRSSMB()
		tun, inf := zooSim(untraced[0].cold)
		rep.notef("modeled: tuning_sim_s %.6g sim_s, infer_sim_ms %.6g sim_ms (cold pass, summed over the zoo)", tun, inf)
		return rep, nil
	}

	sp = newSpanLog("compile-zoo")
	var coldL, warmL []compileLayers
	traced, err := zooLoop(rep, srcs, cfg.jobs, measure, sp, func(cold, warm compileLayers) {
		coldL, warmL = append(coldL, cold), append(warmL, warm)
	})
	if err != nil {
		return nil, err
	}
	te2e := zooMetrics(rep, traced)
	for i := range traced {
		checkZoo(rep, traced[i], untraced[0])
	}
	rep.vals = zooLayers(traced, coldL, warmL)
	rep.vals["trace.overhead_pct"] = 100 * (te2e["recompile_s"] - e2e["recompile_s"]) / e2e["recompile_s"]
	for _, m := range endToEnd {
		if v, ok := e2e[m.name]; ok {
			rep.notef("tracing overhead %-12s untraced %.6g traced %.6g %s", m.name, v, te2e[m.name], m.unit)
		}
	}
	path, n, err := sp.write("compile-zoo")
	if err != nil {
		return nil, err
	}
	rep.notef("spans: %d written to %s", n, path)
	return rep, nil
}

// zooLoop repeats cold+warm iterations until seconds have elapsed (at
// least two), checking each. With sp set the compiles take the traced
// path and layers receives each iteration's per-pass layer times.
func zooLoop(rep *report, srcs []*relay.Graph, jobs int, seconds float64, sp *spanLog, layers func(cold, warm compileLayers)) ([]zooIteration, error) {
	var its []zooIteration
	start := time.Now()
	for len(its) < 2 || time.Since(start).Seconds() < seconds {
		file := scratchFile("zoo")
		var cl, wl compileLayers
		cold, err := zooPass(srcs, file, jobs, sp, "cold", &cl)
		var warm []zooCompile
		if err == nil {
			warm, err = zooPass(srcs, file, jobs, sp, "warm", &wl)
		}
		if err != nil {
			// A compile error fails the iteration's compiles and ends
			// the loop; the run still reports what it measured.
			os.Remove(file)
			rep.attempted += 2 * len(srcs)
			rep.failed += 2 * len(srcs)
			rep.fail("%v", err)
			if len(its) == 0 {
				return nil, err
			}
			break
		}
		if sp != nil {
			if st, err := os.Stat(file); err == nil {
				cl.logBytes = st.Size()
			}
			layers(cl, wl)
		}
		os.Remove(file)
		it := zooIteration{cold: cold, warm: warm}
		if len(its) == 0 {
			checkZoo(rep, it, it)
		} else {
			checkZoo(rep, it, its[0])
		}
		its = append(its, it)
		rep.attempted += 2 * len(srcs)
	}
	return its, nil
}

// zooMetrics computes the end-to-end metrics of a set of iterations.
func zooMetrics(rep *report, its []zooIteration) map[string]float64 {
	var cold, warm, lat []float64
	var wall time.Duration
	var allocs uint64
	pass := func(cs []zooCompile) float64 {
		sum := time.Duration(0)
		for _, c := range cs {
			sum += c.wall
			lat = append(lat, ms(c.wall))
			allocs += c.allocs
		}
		wall += sum
		return sum.Seconds()
	}
	for _, it := range its {
		cold = append(cold, pass(it.cold))
		warm = append(warm, pass(it.warm))
	}
	rep.notef("compiles: %d over %d iterations; per-compile p99 %.4g ms, max %.4g ms (n=%d)",
		len(lat), len(its), percentile(lat, 99), percentile(lat, 100), len(lat))
	return map[string]float64{
		"compile_s":     median(cold),
		"recompile_s":   median(warm),
		"req_per_s":     float64(len(lat)) / wall.Seconds(),
		"lat_p50_ms":    median(lat),
		"lat_p95_ms":    percentile(lat, 95),
		"allocs_per_op": float64(allocs) / float64(len(lat)),
	}
}

// zooLayers computes the per-layer metrics of the traced iterations:
// layer times are medians over passes (warm passes for the log and
// graph layers, which recompile_s rests on; cold passes for codegen,
// whose profiling compile_s pays), counts come from the first cold pass.
func zooLayers(its []zooIteration, cold, warm []compileLayers) map[string]float64 {
	med := func(ls []compileLayers, f func(compileLayers) time.Duration) float64 {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = ms(f(l))
		}
		return median(xs)
	}
	v := map[string]float64{
		"relay.optimize_ms":  med(warm, func(l compileLayers) time.Duration { return l.optimize }),
		"relay.rebatch_ms":   med(warm, func(l compileLayers) time.Duration { return l.rebatch }),
		"tunelog.load_ms":    med(warm, func(l compileLayers) time.Duration { return l.load }),
		"tunelog.save_ms":    med(warm, func(l compileLayers) time.Duration { return l.save }),
		"codegen.compile_ms": med(cold, func(l compileLayers) time.Duration { return l.codegen }),
		"relay.nodes":        float64(cold[0].nodes),
		"tunelog.bytes":      float64(cold[0].logBytes),
		"tunelog.entries":    float64(cold[0].logEntries),
	}
	v["tuning_sim_s"], v["infer_sim_ms"] = zooSim(its[0].cold)
	var hits, unique int
	for _, c := range its[0].cold {
		t := c.stats
		hits += t.CacheHits
		unique += t.UniqueWorkloads
		v["codegen.launches"] += float64(c.launches)
		v["profiler.measurements"] += float64(t.Measurements)
		v["profiler.sample_programs"] += float64(t.SamplePrograms)
		v["profiler.tuning_sim_s"] += t.TuningSeconds
		for k, x := range c.groups {
			v[k] += x
		}
	}
	v["codegen.unique_workloads"] = float64(unique)
	if unique > 0 {
		v["codegen.cache_hit_ratio"] = float64(hits) / float64(unique)
	}
	return v
}
