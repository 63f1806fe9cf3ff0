package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bolt"
	"bolt/internal/bench"
	"bolt/internal/models"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// servingSpec fixes one serving workload. The open-loop rates are
// constants of the workload, calibrated once on seed 1 against that
// seed's flood capacity on a two-core machine: about a third of it on
// serve-mlp-fleet, a quarter on serve-resnet (README.md gives why).
type servingSpec struct {
	name    string
	tenants []tenantSpec
	// workers is the number of serving workers across the endpoint.
	workers int
	// schedule draws the open loop's arrival times; openRate is its
	// rate, requests per second.
	schedule func(rate, seconds float64, seed int64) []float64
	openRate float64
	// rounds is how many set-up/deploy/open-loop rounds a pass runs;
	// floodShare is the share of the pass spent in the flood.
	rounds     int
	floodShare float64
	// repBudget is how long each round keeps repeating each timed
	// set-up or deploy (at least once).
	repBudget time.Duration
	// floodWindow is how many requests the flood keeps outstanding.
	floodWindow int
	// highShare is the share of open-loop requests sent PriorityHigh.
	highShare float64
	// inputs is how many distinct inputs each tenant draws from.
	inputs int
	// deploy is every tenant's DeployOptions.
	deploy bolt.DeployOptions
	// start opens an endpoint with no tenants.
	start func(cacheFile string, jobs int) (*endpoint, error)
}

// tenantSpec names one served model and builds its graph.
type tenantSpec struct {
	name  string
	build func() *relay.Graph
}

// repeatTimed runs f at least once and until budget has passed (at
// most 100 times), returning each run's host seconds: cheap set-ups and
// deploys get enough repetitions for a steady median.
func repeatTimed(budget time.Duration, f func() error) ([]float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < 1 || (time.Since(start) < budget && len(ds) < 100) {
		t0 := time.Now()
		if err := f(); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return ds, nil
}

var serveResNet = servingSpec{
	name:        "serve-resnet",
	tenants:     []tenantSpec{{"resnet50", func() *relay.Graph { return models.ResNetAt(50, 1, 32) }}},
	workers:     2,
	schedule:    evenlySpaced,
	openRate:    3,
	rounds:      4,
	floodShare:  0.25,
	floodWindow: 16,
	inputs:      4,
	deploy:      bolt.DeployOptions{Buckets: []int{1, 2, 4, 8}},
	start: func(cacheFile string, jobs int) (*endpoint, error) {
		srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{Workers: 2, CacheFile: cacheFile, Jobs: jobs})
		if err != nil {
			return nil, err
		}
		return serverEndpoint(srv), nil
	},
}

var serveMLPFleet = servingSpec{
	name: "serve-mlp-fleet",
	tenants: []tenantSpec{
		{"mlp64", func() *relay.Graph { return models.BERTMLP(1, 64, 256) }},
		{"mlp32", func() *relay.Graph { return models.BERTMLP(1, 32, 128) }},
	},
	workers:     2,
	schedule:    poisson,
	openRate:    12000,
	rounds:      6,
	floodShare:  0.35,
	repBudget:   150 * time.Millisecond,
	floodWindow: 256,
	highShare:   0.2,
	inputs:      64,
	deploy:      bolt.DeployOptions{Buckets: []int{1, 2, 4, 8}, ContinuousBatching: true},
	start: func(cacheFile string, jobs int) (*endpoint, error) {
		flt, err := bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
			Replicas:    []bolt.FleetReplica{{Workers: 1}, {Workers: 1}},
			BatchWindow: 2 * time.Millisecond,
			CacheFile:   cacheFile,
			Jobs:        jobs,
		})
		if err != nil {
			return nil, err
		}
		return fleetEndpoint(flt), nil
	},
}

func runServeResNet(cfg runConfig) (*report, error)   { return runServing(serveResNet, cfg) }
func runServeMLPFleet(cfg runConfig) (*report, error) { return runServing(serveMLPFleet, cfg) }

// reply is one request's outcome, whichever endpoint served it.
type reply struct {
	out        *tensor.Tensor
	err        error
	batch      int
	simArrival float64
	simLatency float64
	queueWait  float64
	exec       float64
}

// endpoint adapts bolt.Server and bolt.Fleet to one request interface.
type endpoint struct {
	// submit enqueues one request (the timed InferAsync call) and
	// returns a function that blocks for its reply.
	submit func(model string, in map[string]*tensor.Tensor, o bolt.InferOptions) (func() reply, error)
	// fleet reports hedges, retries and delivered errors (nil for a
	// bare server).
	fleet  func() (hedges, retries, deliveredErrors int64)
	deploy func(name string, g *bolt.Graph, opts bolt.DeployOptions) error
	warm   func(name string, buckets ...int) error
	close  func() error
}

func serverEndpoint(srv *bolt.Server) *endpoint {
	return &endpoint{
		submit: func(model string, in map[string]*tensor.Tensor, o bolt.InferOptions) (func() reply, error) {
			ch, err := srv.InferAsync(model, in, o)
			if err != nil {
				return nil, err
			}
			return func() reply { return fromServe(<-ch) }, nil
		},
		deploy: srv.Deploy,
		warm:   srv.Warm,
		close:  srv.Close,
	}
}

func fleetEndpoint(flt *bolt.Fleet) *endpoint {
	return &endpoint{
		submit: func(model string, in map[string]*tensor.Tensor, o bolt.InferOptions) (func() reply, error) {
			ch, err := flt.InferAsync(model, in, o)
			if err != nil {
				return nil, err
			}
			return func() reply { return fromServe((<-ch).Result) }, nil
		},
		fleet: func() (int64, int64, int64) {
			st := flt.Stats()
			return st.HedgesIssued, st.Retries, st.DeliveredErrors
		},
		deploy: flt.Deploy,
		warm:   flt.Warm,
		close:  flt.Close,
	}
}

func fromServe(r bolt.ServeResult) reply {
	return reply{out: r.Output, err: r.Err, batch: r.Batch, simArrival: r.SimArrival,
		simLatency: r.SimLatency, queueWait: r.QueueWait, exec: r.ExecuteSeconds}
}

// deployAll starts the workload's endpoint and deploys and warms every
// tenant, closing the endpoint on failure.
func deployAll(spec servingSpec, srcs []*relay.Graph, cacheFile string, jobs int) (*endpoint, error) {
	ep, err := spec.start(cacheFile, jobs)
	if err != nil {
		return nil, err
	}
	for i, t := range spec.tenants {
		if err := ep.deploy(t.name, srcs[i], spec.deploy); err != nil {
			ep.close()
			return nil, fmt.Errorf("deploying %s: %w", t.name, err)
		}
	}
	for _, t := range spec.tenants {
		if err := ep.warm(t.name); err != nil {
			ep.close()
			return nil, fmt.Errorf("warming %s: %w", t.name, err)
		}
	}
	return ep, nil
}

// served is the set-up of a serving run: the source graphs and, per
// tenant, the seeded inputs and their batch-1 RunUnplanned references.
type served struct {
	srcs   []*relay.Graph
	inputs [][]map[string]*tensor.Tensor
	refs   [][][]float32
}

// setUp builds the graphs, generates each tenant's inputs from the
// seed, and computes each input's reference output with a batch-1
// module of the model through RunUnplanned.
func setUp(spec servingSpec, seed int64) (*served, error) {
	s := &served{}
	for ti, t := range spec.tenants {
		src := t.build()
		s.srcs = append(s.srcs, src)
		g, err := relay.Rebatch(src, 1)
		if err != nil {
			return nil, err
		}
		r, err := bolt.Compile(g, bolt.T4(), bolt.Options{})
		if err != nil {
			return nil, fmt.Errorf("compiling the %s reference: %w", t.name, err)
		}
		in := src.Inputs[0]
		var ins []map[string]*tensor.Tensor
		var refs [][]float32
		for i := 0; i < spec.inputs; i++ {
			x := tensor.NewWithLayout(in.DType, in.Layout, in.Shape...)
			x.FillRandom(seed*1_000_003+int64(ti*spec.inputs+i), 1)
			m := map[string]*tensor.Tensor{in.Name: x}
			ins = append(ins, m)
			refs = append(refs, r.Module.RunUnplanned(m).Data())
		}
		s.inputs = append(s.inputs, ins)
		s.refs = append(s.refs, refs)
	}
	return s, nil
}

// sample is one request's record. Times are host offsets from the start
// of its phase; recv is negative when the request failed. It holds no
// pointers, so the garbage collector need not scan the run's records.
type sample struct {
	tenant, input int
	prio          bolt.Priority
	due           time.Duration
	sent, enq     time.Duration
	recv          time.Duration
	// batch, simArrival, simLatency, queueWait and exec echo the reply.
	batch                  int
	simArrival, simLatency float64
	queueWait, exec        float64
}

// ok reports whether the request returned the reference output.
func (s *sample) ok() bool { return s.recv >= 0 }

// finish records a reply, comparing the output bit for bit with the
// reference; a mismatch fails the request.
func (s *sample) finish(r reply, ref []float32, at time.Duration) {
	s.batch, s.simArrival, s.simLatency, s.queueWait, s.exec = r.batch, r.simArrival, r.simLatency, r.queueWait, r.exec
	s.recv = at
	if r.err != nil || r.out == nil || !sameBits(r.out.Data(), ref) {
		s.recv = -1
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// poisson is a seeded Poisson schedule of rate arrivals per second,
// covering at least seconds.
func poisson(rate, seconds float64, seed int64) []float64 {
	return bench.PoissonArrivals(int(rate*seconds*1.5)+16, 1/rate, seed)
}

// evenlySpaced is a seeded constant-rate schedule: one arrival every
// 1/rate seconds from a random phase.
func evenlySpaced(rate, seconds float64, seed int64) []float64 {
	gap := 1 / rate
	t := rand.New(rand.NewSource(seed)).Float64() * gap
	var due []float64
	for ; t < seconds; t += gap {
		due = append(due, t)
	}
	return due
}

// openLoop sends requests on the workload's seeded schedule regardless of
// completions. Every request carries SimArrival = simStart + its due
// time. It returns the requests and the host time the schedule started.
func openLoop(spec servingSpec, ep *endpoint, s *served, rng *rand.Rand, seconds, simStart float64) ([]sample, time.Time) {
	due := spec.schedule(spec.openRate, seconds, rng.Int63())
	reqs := make([]sample, 0, len(due))
	for _, d := range due {
		if d >= seconds {
			break
		}
		p := bolt.PriorityNormal
		if rng.Float64() < spec.highShare {
			p = bolt.PriorityHigh
		}
		t := rng.Intn(len(spec.tenants))
		reqs = append(reqs, sample{tenant: t, input: rng.Intn(spec.inputs), prio: p,
			due: time.Duration(d * float64(time.Second))})
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		send(spec, ep, s, r, start, simStart+r.due.Seconds(), &wg, nil)
	}
	wg.Wait()
	return reqs, start
}

// send submits one request and starts the goroutine that waits for its
// reply; done, when set, runs after the reply is recorded.
func send(spec servingSpec, ep *endpoint, s *served, r *sample, start time.Time, simArrival float64, wg *sync.WaitGroup, done func()) {
	r.sent = time.Since(start)
	wait, err := ep.submit(spec.tenants[r.tenant].name, s.inputs[r.tenant][r.input],
		bolt.InferOptions{Priority: r.prio, SimArrival: simArrival})
	r.enq = time.Since(start)
	if err != nil {
		r.recv = -1
		if done != nil {
			done()
		}
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep := wait()
		r.finish(rep, s.refs[r.tenant][r.input], time.Since(start))
		if done != nil {
			done()
		}
	}()
}

// floodResult aggregates flood requests, which are not kept. Its
// fields add up over the flood chunks of a pass.
type floodResult struct {
	sent, failed int
	// completed requests finished inside their chunk's window; last
	// sums, over chunks, when the last of them finished, and wall when
	// the chunk's last request finished at all.
	completed  int
	last, wall time.Duration
	// rows counts successful requests per tenant and bucket; simSpan
	// sums the chunks' modeled makespans.
	rows    []map[int]int64
	simSpan float64
}

func (f *floodResult) add(o floodResult) {
	f.sent += o.sent
	f.failed += o.failed
	f.completed += o.completed
	f.last += o.last
	f.wall += o.wall
	f.simSpan += o.simSpan
	if f.rows == nil {
		f.rows = o.rows
		return
	}
	for t, byB := range o.rows {
		for b, n := range byB {
			f.rows[t][b] += n
		}
	}
}

// flood keeps floodWindow requests outstanding for seconds. Its
// requests all carry SimArrival = simStart, so their modeled makespan
// measures modeled capacity.
func flood(spec servingSpec, ep *endpoint, s *served, rng *rand.Rand, seconds, simStart float64) floodResult {
	f := floodResult{rows: make([]map[int]int64, len(spec.tenants))}
	simEnd := simStart
	for i := range f.rows {
		f.rows[i] = make(map[int]int64)
	}
	slots := make(chan struct{}, spec.floodWindow)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := time.Duration(seconds * float64(time.Second))
	for time.Since(start) < end {
		slots <- struct{}{}
		r := &sample{tenant: rng.Intn(len(spec.tenants)), input: rng.Intn(spec.inputs)}
		f.sent++
		send(spec, ep, s, r, start, simStart, &wg, func() {
			mu.Lock()
			switch {
			case !r.ok():
				f.failed++
			default:
				f.rows[r.tenant][r.batch]++
				simEnd = max(simEnd, r.simArrival+r.simLatency)
				f.wall = max(f.wall, r.recv)
				if r.recv <= end {
					f.completed++
					f.last = max(f.last, r.recv)
				}
			}
			mu.Unlock()
			<-slots
		})
	}
	wg.Wait()
	f.simSpan = simEnd - simStart
	return f
}
