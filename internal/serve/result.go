// Package serve is Bolt's serving layer: a multi-tenant request
// scheduler plus a dynamic batcher that coalesces single-sample
// inference requests into batch-bucketed runs over lazily compiled
// batch variants of the deployed models.
//
// This is the deployment story of the paper's §1/§2.1 motivation:
// dynamic-shape workloads arrive continuously, every new batch size is
// a brand-new workload for the tuner, and Bolt's light-weight profiler
// (plus the persistent tuning log) is what makes compiling a variant
// on demand affordable. Serving is a multi-tenant infrastructure
// problem, so a Server owns one shared worker pool and schedules many
// models over it: per-model/per-priority FIFO queues, weighted
// round-robin across tenants, and priority-aware batching (a pending
// high-priority request preempts the batch window; bulk requests wait
// for full buckets). The server leans on the runtime split — modules
// are immutable programs, per-run state lives in pooled rt.ExecStates
// — so N workers execute one variant concurrently with zero
// steady-state allocation.
//
// Performance accounting follows the repo's convention: execution is
// functional (real numerics on the host) while time is priced on the
// simulated device. Each worker owns a simulated clock that advances
// by the variant's modeled batch latency, so throughput and latency
// statistics are deterministic and reflect what N device streams would
// deliver, not host scheduling noise.
package serve

import (
	"errors"

	"bolt/internal/gpu"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// CompileVariant compiles the source model at a leading batch
// dimension for one device class (relay.Rebatch + the regular
// compilation pipeline; the bolt package wires this to the tuning
// pipeline with a shared tuning-log cache). The server passes the
// class's device — nil for the anonymous homogeneous class — so on a
// heterogeneous pool each class executes variants tuned for its own
// silicon.
type CompileVariant func(dev *gpu.Device, batch int) (*rt.Module, error)

// ErrClosed is returned by Infer/Deploy after Close.
var ErrClosed = errors.New("serve: server closed")

// Result is one completed request.
type Result struct {
	// Output is the request's slice of the batch output (leading dim
	// 1), owned by the caller.
	Output *tensor.Tensor
	Err    error
	// Model names the deployed model that served the request.
	Model string
	// Priority is the request's scheduling class.
	Priority Priority
	// Batch is the bucket the request was coalesced into.
	Batch int
	// Worker is the executor (simulated device stream) that ran it.
	Worker int
	// Device names the worker's device on a heterogeneous pool ("" for
	// the homogeneous legacy streams) — which silicon served this
	// request.
	Device string
	// SimArrival echoes the request's InferOptions.SimArrival.
	SimArrival float64
	// SimLatency is the request's simulated latency: the worker's clock
	// when the batch finished minus the request's simulated arrival.
	// Under the flood model (every request arrives at simulated time
	// zero) this is simply the completion time, matching the
	// pre-arrival-process semantics.
	SimLatency float64
	// QueueWait is the simulated time from the request's arrival to its
	// batch's execution start — batch-formation wait plus worker-queue
	// wait. Set on success only, like SimLatency.
	QueueWait float64
	// ExecuteSeconds is the simulated time the request's batch spent
	// executing (injected stalls included). The decomposition is exact:
	// QueueWait + ExecuteSeconds == SimLatency bit-for-bit, so callers
	// can attribute a request's time without parsing stats.
	ExecuteSeconds float64
}
