package main

import (
	"time"

	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// kernelGroup names the cutlass group a kernel's node belongs to.
func kernelGroup(n *relay.Node) string {
	switch n.Op {
	case relay.OpConv2D, relay.OpPersistentConv:
		return "conv2d"
	case relay.OpDense, relay.OpPersistentGemm:
		return "dense"
	}
	return "other"
}

// nodeFLOPs is the arithmetic a node performs, from its shapes: 2 per
// multiply-add for GEMMs and convolutions, one per output element for
// everything else.
func nodeFLOPs(n *relay.Node) float64 {
	switch n.Op {
	case relay.OpConv2D:
		return n.Conv.FLOPs()
	case relay.OpDense:
		return 2 * float64(n.Shape[0]) * float64(n.Shape[1]) * float64(n.Inputs[0].Shape[1])
	case relay.OpPersistentConv:
		f := 0.0
		for _, l := range n.Chain {
			f += l.Conv.FLOPs()
		}
		return f
	case relay.OpPersistentGemm:
		f := 0.0
		for _, l := range n.Chain {
			f += 2 * float64(n.Shape[0]) * float64(l.N) * float64(l.K)
		}
		return f
	}
	return float64(n.Shape.NumElements())
}

// nodeBytes is the data a node reads and writes, from its shapes and
// dtypes: every input (weights included) plus its output.
func nodeBytes(n *relay.Node) float64 {
	b := float64(n.Shape.NumElements() * n.DType.Size())
	for _, in := range n.Inputs {
		b += float64(in.Shape.NumElements() * in.DType.Size())
	}
	return b
}

// kernelGroups sums, per cutlass group and per image, the modeled
// kernel time (joined to Module.Report by kernel name), the FLOPs and
// bytes of launched kernels, and — when host is given, indexed like
// each module's Kernels — the host time of every kernel. images is the
// batch each module runs.
func kernelGroups(mods []*rt.Module, host [][]time.Duration, images int) map[string]float64 {
	v := make(map[string]float64)
	for mi, m := range mods {
		sim := make(map[string]float64)
		for _, r := range m.Report() {
			sim[r.Name] += r.Time
		}
		for ki := range m.Kernels {
			k := &m.Kernels[ki]
			g := "cutlass." + kernelGroup(k.Node)
			if host != nil {
				v[g+".host_ms"] += ms(host[mi][ki]) / float64(images)
			}
			if k.Launches == 0 {
				continue
			}
			v[g+".sim_us"] += sim[k.Name] * 1e6 / float64(images)
			v[g+".gflops"] += nodeFLOPs(k.Node) / 1e9 / float64(images)
			v[g+".mbytes"] += nodeBytes(k.Node) / 1e6 / float64(images)
			delete(sim, k.Name) // a name shared by two kernels is priced once
		}
	}
	return v
}

// timedModule returns a fresh module over m's exported fields whose
// kernels add their host time to acc[i] on every execution, and record
// a span under parent when sp is set.
func timedModule(m *rt.Module, acc []time.Duration, sp *spanLog, parent string) *rt.Module {
	ks := make([]rt.Kernel, len(m.Kernels))
	copy(ks, m.Kernels)
	for i := range ks {
		exec, name := ks[i].Exec, ks[i].Name
		ks[i].Exec = func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
			t0 := time.Now()
			out := exec(env, dst)
			t1 := time.Now()
			acc[i] += t1.Sub(t0)
			if sp != nil {
				sp.add(name, "kernels", parent, 0, sp.since(t0), sp.since(t1))
			}
			return out
		}
	}
	return &rt.Module{Graph: m.Graph, Kernels: ks, Device: m.Device, Tuning: m.Tuning, Plan: m.Plan}
}
