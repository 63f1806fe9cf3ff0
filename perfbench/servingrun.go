package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"bolt"
	"bolt/internal/obs"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// pass is one measured pass of a serving workload. It runs in rounds,
// so every metric samples the whole pass rather than one stretch of a
// host whose speed drifts. Each round times a set-up, a cold deploy
// into an empty tuning log and a warm deploy that reads it back; the
// warm endpoint then serves an open-loop chunk and, every other round,
// a flood chunk.
type pass struct {
	s                  *served
	setups, cold, warm []float64
	chunks             []chunk
	// allocs counts the open loop's heap allocations.
	allocs uint64
	flood  floodResult
	// floodSeconds is the flood's total length over the rounds.
	floodSeconds float64
	// fleet is set when the endpoint is a bolt.Fleet; hedges, retries
	// and deliveredErrors sum its router counters over the pass.
	fleet                            bool
	hedges, retries, deliveredErrors int64
}

// chunk is one round's open-loop requests and when their schedule
// started.
type chunk struct {
	start time.Time
	reqs  []sample
}

// open calls f on every open-loop request of the pass, in order.
func (p *pass) open(f func(r *sample)) {
	for _, c := range p.chunks {
		for i := range c.reqs {
			f(&c.reqs[i])
		}
	}
}

// runPass runs one pass of about seconds.
func runPass(spec servingSpec, cfg runConfig, rep *report, rng *rand.Rand, seconds float64) (*pass, error) {
	rounds := spec.rounds
	if cfg.trace {
		// Each pass of a traced run has half the seconds: halve the
		// rounds, so each round keeps its open-loop chunk.
		rounds = max(1, rounds/2)
	}
	p := &pass{floodSeconds: seconds * spec.floodShare}
	// The flood runs in every other round (the only round of a
	// one-round pass): chunks long enough that the batch-granular
	// completions of heavy requests fill them, still spread over the
	// pass.
	floods := func(r int) bool { return r%2 == 1 || rounds == 1 }
	chunks := 0
	for r := 0; r < rounds; r++ {
		if floods(r) {
			chunks++
		}
	}
	floodS := p.floodSeconds / float64(chunks)
	start := time.Now()
	file := scratchFile(spec.name)
	defer os.Remove(file)
	var ep *endpoint
	closeEP := func() error {
		if ep == nil {
			return nil
		}
		if ep.fleet != nil {
			h, rt, de := ep.fleet()
			p.fleet = true
			p.hedges, p.retries, p.deliveredErrors = p.hedges+h, p.retries+rt, p.deliveredErrors+de
		}
		err := ep.close()
		ep = nil
		return err
	}
	defer closeEP()
	deploy := func(cold bool) func() error {
		return func() error {
			if err := closeEP(); err != nil {
				return err
			}
			if cold {
				os.Remove(file)
			}
			rep.attempted++
			var err error
			if ep, err = deployAll(spec, p.s.srcs, file, cfg.jobs); err != nil {
				rep.failed++
			}
			return err
		}
	}
	for r := 0; r < rounds; r++ {
		// Start each round's timings from a collected heap, so the
		// previous chunk's garbage is not charged to them.
		runtime.GC()
		t0 := time.Now()
		ds, err := repeatTimed(spec.repBudget, func() error {
			var err error
			p.s, err = setUp(spec, cfg.seed)
			return err
		})
		p.setups = append(p.setups, ds...)
		if err == nil {
			ds, err = repeatTimed(spec.repBudget, deploy(true))
			p.cold = append(p.cold, ds...)
		}
		if err == nil {
			ds, err = repeatTimed(spec.repBudget, deploy(false))
			p.warm = append(p.warm, ds...)
		}
		if err != nil {
			// A failed set-up or deploy ends the pass; the run still
			// reports what it measured.
			rep.fail("round %d: %v", r+1, err)
			if r == 0 {
				return nil, err
			}
			break
		}
		// The open-loop chunks share what is left of the pass evenly,
		// after the flood chunks still to run and the set-ups and
		// deploys of the rounds still to come (estimated by this
		// round's), so a round that overran shortens the later ones.
		overhead := time.Since(t0).Seconds()
		left := seconds - time.Since(start).Seconds() - float64(rounds-r-1)*overhead
		for f := r; f < rounds; f++ {
			if floods(f) {
				left -= floodS
			}
		}
		openS := max(left/float64(rounds-r), seconds/float64(8*rounds))
		a0 := mallocs()
		reqs, start := openLoop(spec, ep, p.s, rng, openS, 0)
		p.allocs += mallocs() - a0
		p.chunks = append(p.chunks, chunk{start: start, reqs: reqs})
		simStart := openS
		for i := range reqs {
			simStart = max(simStart, reqs[i].simArrival+reqs[i].simLatency)
		}
		if floods(r) {
			p.flood.add(flood(spec, ep, p.s, rng, floodS, simStart))
		}
	}
	return p, closeEP()
}

// count reports requests sent and failed per phase into rep.
func (p *pass) count(rep *report, label string) {
	sent, failed := 0, 0
	p.open(func(r *sample) {
		sent++
		if !r.ok() {
			failed++
		}
	})
	rep.attempted += sent + p.flood.sent
	rep.failed += failed + p.flood.failed
	rep.notef("%s phase open: sent %d, succeeded %d, failed %d", label, sent, sent-failed, failed)
	rep.notef("%s phase flood: sent %d, succeeded %d, failed %d", label, p.flood.sent, p.flood.sent-p.flood.failed, p.flood.failed)
}

// openLatencies returns the open loop's due-time latencies in ms
// (failed requests +Inf) and the generator's lateness in ms.
func (p *pass) openLatencies() (lat, late []float64) {
	p.open(func(r *sample) {
		l, lt := dueLatency(r.due, r.sent, r.recv)
		lat = append(lat, ms(l))
		late = append(late, ms(lt))
	})
	return lat, late
}

// endToEnd computes the end-to-end metrics of one pass.
func (p *pass) endToEnd(rep *report, label string) map[string]float64 {
	lat, late := p.openLatencies()
	rep.notef("%s set-ups (s): %s", label, spread(p.setups))
	rep.notef("%s deploys (s): cold %s; warm %s", label, spread(p.cold), spread(p.warm))
	rep.notef("%s open loop: p50 %.4g ms, pooled p95 %.4g ms (%d beyond), p99 %.4g ms (%d beyond), max %.4g ms, n=%d; generator late p95 %.4g ms",
		label, median(lat), percentile(lat, 95), beyond(lat, 95), percentile(lat, 99), beyond(lat, 99),
		percentile(lat, 100), len(lat), percentile(late, 95))
	// p95 is the median over rounds of each round's p95, so a host
	// stall that hits one round does not set the run's tail.
	var p95s []float64
	from := 0
	for _, c := range p.chunks {
		p95s = append(p95s, percentile(lat[from:from+len(c.reqs)], 95))
		from += len(c.reqs)
	}
	rep.notef("%s open-loop p95 per round (ms): %.4g", label, p95s)
	return map[string]float64{
		"setup_s":       median(p.setups),
		"compile_s":     median(p.cold),
		"recompile_s":   median(p.warm),
		"req_per_s":     float64(p.flood.completed) / p.flood.last.Seconds(),
		"lat_p50_ms":    median(lat),
		"lat_p95_ms":    median(p95s),
		"allocs_per_op": float64(p.allocs) / float64(len(lat)),
	}
}

// runServing is a serving workload; see pass for its structure.
func runServing(spec servingSpec, cfg runConfig) (*report, error) {
	rep := &report{vals: map[string]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	seconds := cfg.seconds
	if cfg.trace {
		// The traced run measures an untraced pass first, so the
		// tracing overhead is the difference of the two passes.
		seconds /= 2
	}
	p, err := runPass(spec, cfg, rep, rng, seconds)
	if err != nil {
		return nil, err
	}
	p.count(rep, "untraced")
	e2e := p.endToEnd(rep, "untraced")
	if !cfg.trace {
		rep.vals = e2e
		rep.vals["peak_rss_mb"] = peakRSSMB()
		return rep, nil
	}

	sp := newSpanLog(spec.name)
	v, runS, err := servingLayers(spec, p.s, cfg.jobs, sp, rep)
	if err != nil {
		return nil, err
	}
	tp, err := runPass(spec, cfg, rep, rng, seconds)
	if err != nil {
		return nil, err
	}
	tp.count(rep, "traced")
	te2e := tp.endToEnd(rep, "traced")
	tp.emitSpans(spec, sp)
	for k, x := range servingStageLayers(spec, tp, runS) {
		v[k] = x
	}
	v["trace.overhead_pct"] = 100 * (e2e["req_per_s"]/te2e["req_per_s"] - 1)
	for _, m := range endToEnd {
		if x, ok := e2e[m.name]; ok {
			rep.notef("tracing overhead %-12s untraced %.6g traced %.6g %s", m.name, x, te2e[m.name], m.unit)
		}
	}
	path, n, err := sp.write(spec.name)
	if err != nil {
		return nil, err
	}
	rep.notef("spans: %d written to %s", n, path)
	rep.vals = v
	return rep, nil
}

// servingLayers compiles every served variant through the traced
// compile path, as a cold deploy does, then times each variant's
// standalone run and each kernel of the batch-1 variants from outside.
// It returns the compile, cutlass and rt metrics, plus the standalone
// run time in seconds per tenant and bucket.
func servingLayers(spec servingSpec, s *served, jobs int, sp *spanLog, rep *report) (map[string]float64, []map[int]float64, error) {
	file := scratchFile(spec.name + "-traced")
	defer os.Remove(file)
	v := make(map[string]float64)
	var lt compileLayers
	var hits, unique int
	mods := make([]map[int]*rt.Module, len(spec.tenants))
	req := int64(0)
	for ti, src := range s.srcs {
		mods[ti] = make(map[int]*rt.Module)
		for _, b := range spec.deploy.Buckets {
			req++
			label := fmt.Sprintf("compile %s b%d", spec.tenants[ti].name, b)
			var g *relay.Graph
			d, err := sp.call("relay.Rebatch", "compile", "", req, func() error {
				var err error
				g, err = relay.Rebatch(src, b)
				return err
			})
			lt.rebatch += d
			if err != nil {
				return nil, nil, err
			}
			c, err := compileTraced(sp, req, label, g, bolt.T4(), file, jobs, &lt)
			if err != nil {
				return nil, nil, err
			}
			t := c.module.Tuning
			hits += t.CacheHits
			unique += t.UniqueWorkloads
			v["tuning_sim_s"] += c.tuningTime.Seconds()
			v["codegen.launches"] += float64(c.module.LaunchCount())
			v["profiler.measurements"] += float64(t.Measurements)
			v["profiler.sample_programs"] += float64(t.SamplePrograms)
			v["profiler.tuning_sim_s"] += t.TuningSeconds
			mem := c.module.Memory()
			v["rt.arena_mb"] += float64(mem.PlannedArenaBytes) / 1e6
			if b == 1 {
				v["rt.param_mb"] += float64(mem.ParamBytes) / 1e6
				v["infer_sim_ms"] += c.module.Time() * 1e3
			}
			mods[ti][b] = c.module
		}
	}
	v["relay.rebatch_ms"] = ms(lt.rebatch)
	v["relay.optimize_ms"] = ms(lt.optimize)
	v["relay.nodes"] = float64(lt.nodes)
	v["tunelog.load_ms"] = ms(lt.load)
	v["tunelog.save_ms"] = ms(lt.save)
	v["tunelog.entries"] = float64(lt.logEntries)
	if st, err := os.Stat(file); err == nil {
		v["tunelog.bytes"] = float64(st.Size())
	}
	v["codegen.compile_ms"] = ms(lt.codegen)
	v["codegen.unique_workloads"] = float64(unique)
	if unique > 0 {
		v["codegen.cache_hit_ratio"] = float64(hits) / float64(unique)
	}

	// Standalone run time of every variant, and the kernels of the
	// batch-1 variants timed one by one.
	runS := make([]map[int]float64, len(spec.tenants))
	var b1 []*rt.Module
	var host [][]time.Duration
	nt := float64(len(spec.tenants))
	for ti := range spec.tenants {
		runS[ti] = make(map[int]float64)
		for _, b := range spec.deploy.Buckets {
			rows := make([]*tensor.Tensor, b)
			for i := range rows {
				rows[i] = s.inputs[ti][i%spec.inputs][s.srcs[ti].Inputs[0].Name]
			}
			in := map[string]*tensor.Tensor{s.srcs[ti].Inputs[0].Name: tensor.StackBatch(rows)}
			m := mods[ti][b]
			reps := runReps(m, in)
			var walls []float64
			a0 := mallocs()
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				m.Run(in)
				walls = append(walls, time.Since(t0).Seconds())
			}
			runS[ti][b] = median(walls)
			if b == 1 {
				v["rt.allocs_per_run"] += float64(mallocs()-a0) / float64(reps) / nt
				acc := make([]time.Duration, len(m.Kernels))
				parent := fmt.Sprintf("rt.Run %s b1", spec.tenants[ti].name)
				tm := timedModule(m, acc, sp, parent)
				for r := 0; r < reps; r++ {
					t0 := time.Now()
					out := tm.Run(in)
					sp.add(parent, "kernels", "", 0, sp.since(t0), sp.since(time.Now()))
					if !sameBits(out.Data(), s.refs[ti][0]) {
						rep.fail("%s: kernel-timed batch-1 run differs from the reference", spec.tenants[ti].name)
					}
				}
				for k := range acc {
					acc[k] /= time.Duration(reps)
				}
				b1 = append(b1, m)
				host = append(host, acc)
			}
		}
		v["rt.run_ms.b1"] += runS[ti][1] * 1e3 / nt
		v["rt.run_ms.b8"] += runS[ti][8] * 1e3 / nt
	}
	for k, x := range kernelGroups(b1, host, 1) {
		v[k] = x
	}
	return v, runS, nil
}

// runReps sizes a standalone-run sample: at least three runs, and
// enough to fill about half a second.
func runReps(m *rt.Module, in map[string]*tensor.Tensor) int {
	t0 := time.Now()
	m.Run(in) // also builds the pooled execution state
	return max(3, min(2000, int(0.5/max(time.Since(t0).Seconds(), 1e-6))))
}

// servingStageLayers computes the serve, fleet and generator metrics of
// the traced pass.
func servingStageLayers(spec servingSpec, p *pass, runS []map[int]float64) map[string]float64 {
	v := make(map[string]float64)
	var enq, wait, high, qwait, exec []float64
	p.open(func(r *sample) {
		enq = append(enq, float64(r.enq-r.sent)/float64(time.Microsecond))
		if !r.ok() {
			return
		}
		lat, _ := dueLatency(r.due, r.sent, r.recv)
		wait = append(wait, ms(lat)-runS[r.tenant][r.batch]*1e3)
		if r.prio == bolt.PriorityHigh {
			high = append(high, ms(lat))
		}
		qwait = append(qwait, r.queueWait*1e3)
		exec = append(exec, r.exec*1e3)
	})
	if p.fleet {
		v["fleet.route_us"] = median(enq)
		v["fleet.hedges"], v["fleet.retries"], v["fleet.delivered_errors"] = float64(p.hedges), float64(p.retries), float64(p.deliveredErrors)
	} else {
		v["serve.enqueue_us"] = median(enq)
	}
	v["serve.host_wait_ms"] = median(wait)
	v["serve.high_p50_ms"] = median(high)
	v["serve.queue_wait_sim_ms"] = mean(qwait)
	v["serve.exec_sim_ms"] = mean(exec)
	_, late := p.openLatencies()
	v["gen.late_p95_ms"] = percentile(late, 95)

	// Flood batches per tenant and bucket: a batch of b rows delivers b
	// requests (padding is off), so batches = requests / b.
	f := &p.flood
	busy, reqs, batches := 0.0, 0.0, 0.0
	for ti, byB := range f.rows {
		bs := make(map[int]int64)
		for b, n := range byB {
			bs[b] = n / int64(b)
			reqs += float64(n)
			batches += float64(n) / float64(b)
		}
		busy += busyShare(bs, runS[ti], spec.workers, f.wall.Seconds())
	}
	v["serve.busy_share"] = busy
	if batches > 0 {
		v["serve.batch_mean"] = reqs / batches
	}
	if f.simSpan > 0 {
		v["serve.sim_req_per_s"] = reqs / f.simSpan
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// emitSpans records each open-loop request as a root span from its due
// time to the receipt of its result, carrying the generator's lateness,
// with the InferAsync call as its child.
func (p *pass) emitSpans(spec servingSpec, sp *spanLog) {
	id := int64(0)
	for _, c := range p.chunks {
		base := sp.since(c.start)
		off := func(d time.Duration) time.Duration { return base + d }
		for i := range c.reqs {
			r := &c.reqs[i]
			id++
			model := spec.tenants[r.tenant].name
			recv := r.recv
			if recv < 0 {
				recv = r.enq
			}
			sp.add("request", model, "", id, off(r.due), off(recv),
				obs.Arg{Key: "priority", Val: r.prio.String()}, obs.Arg{Key: "batch", Val: r.batch},
				obs.Arg{Key: "ok", Val: r.ok()}, obs.Arg{Key: "late_us", Val: (r.sent - r.due).Microseconds()})
			sp.add("InferAsync", model, "request", id, off(r.sent), off(r.enq))
		}
	}
}
