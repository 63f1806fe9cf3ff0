package cutlass

import (
	"fmt"

	"bolt/internal/fp16"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// ConvShape describes a 2-D convolution problem in NHWC layout (the
// only layout CUTLASS supports for convolutions — paper §3.2.3).
// Weights are OHWI: (OC, KH, KW, IC).
type ConvShape struct {
	N, H, W, IC, OC  int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// Conv3x3 builds the common square-kernel shape used throughout the
// paper's tables.
func Conv3x3(n, h, w, ic, oc, stride, pad int) ConvShape {
	return ConvShape{N: n, H: h, W: w, IC: ic, OC: oc, KH: 3, KW: 3,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
}

// Conv1x1 builds a pointwise convolution (stride 1, no padding) — the
// shape persistent fusion requires for trailing layers.
func Conv1x1(n, h, w, ic, oc int) ConvShape {
	return ConvShape{N: n, H: h, W: w, IC: ic, OC: oc, KH: 1, KW: 1,
		StrideH: 1, StrideW: 1}
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.H+2*s.PadH-s.KH)/s.StrideH + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.W+2*s.PadW-s.KW)/s.StrideW + 1 }

// ImplicitGemm returns the (M, N, K) of the implicit-GEMM formulation:
// M = N·OH·OW (one row per output pixel), N = OC, K = IC·KH·KW.
func (s ConvShape) ImplicitGemm() (m, n, k int) {
	return s.N * s.OutH() * s.OutW(), s.OC, s.IC * s.KH * s.KW
}

// FLOPs returns the multiply-add work (2 flops per MAC).
func (s ConvShape) FLOPs() float64 {
	m, n, k := s.ImplicitGemm()
	return 2 * float64(m) * float64(n) * float64(k)
}

// String renders like the paper's workload tables.
func (s ConvShape) String() string {
	return fmt.Sprintf("conv %dx%dx%dx%d k%dx%d s%d ic%d oc%d",
		s.N, s.H, s.W, s.IC, s.KH, s.KW, s.StrideH, s.IC, s.OC)
}

// Validate sanity-checks the problem geometry.
func (s ConvShape) Validate() error {
	if s.N <= 0 || s.H <= 0 || s.W <= 0 || s.IC <= 0 || s.OC <= 0 {
		return fmt.Errorf("cutlass: non-positive conv dims %+v", s)
	}
	if s.KH <= 0 || s.KW <= 0 || s.StrideH <= 0 || s.StrideW <= 0 {
		return fmt.Errorf("cutlass: non-positive kernel/stride %+v", s)
	}
	if s.PadH < 0 || s.PadW < 0 {
		return fmt.Errorf("cutlass: negative padding %+v", s)
	}
	if s.OutH() <= 0 || s.OutW() <= 0 {
		return fmt.Errorf("cutlass: empty output for %+v", s)
	}
	return nil
}

// Conv2D is an instantiated implicit-GEMM forward-convolution kernel.
type Conv2D struct {
	Shape    ConvShape
	Config   GemmConfig
	Epilogue Epilogue
}

// NewConv2D validates and instantiates the template.
func NewConv2D(shape ConvShape, cfg GemmConfig, epi Epilogue, d *gpu.Device) (*Conv2D, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	return &Conv2D{Shape: shape, Config: cfg, Epilogue: epi}, nil
}

// Name returns the kernel name in CUTLASS conv convention.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("%s_fprop_%s", c.Config.Name(), c.Epilogue.String())
}

// SupportsProblem reports whether the operand alignments divide the
// channel counts (NHWC innermost dimension is C; paper §3.2.3: a
// 3-input-channel first layer forces alignment 1).
func (c *Conv2D) SupportsProblem() bool {
	s := c.Shape
	// Activation & weight contiguous dim: IC; output contiguous dim: OC.
	return s.IC%c.Config.AlignA == 0 && s.IC%c.Config.AlignB == 0 && s.OC%c.Config.AlignC == 0
}

// Run executes the convolution functionally. x is NHWC (N,H,W,IC);
// w is OHWI (OC,KH,KW,IC); bias is a length-OC vector or nil. The
// output is NHWC (N,OH,OW,OC), quantized to the epilogue out dtype.
func (c *Conv2D) Run(x, w, bias *tensor.Tensor) *tensor.Tensor {
	return c.RunInto(nil, x, w, bias)
}

// RunInto executes like Run but writes into dst, an NHWC
// (N,OH,OW,OC) tensor of the epilogue's output dtype that must not
// alias any operand. A nil dst allocates. It returns the destination.
//
// The body is a register-blocked implicit GEMM over M = N·OH·OW output
// pixels, N = OC and K = KH·KW·IC. Each parallelRows chunk (whole
// output rows, so a pixel block never spans two chunks) walks its
// pixels in blocks of 4. Per filter row, the taps all four pixels have
// in bounds form one contiguous K-run, which a 4-pixel × 4-OC
// micro-kernel consumes: 16 float32 accumulators fed by 4 activation
// and 4 weight values per K step (kRun.tile4x4 explains the register
// split). Taps only some of a block's pixels have in bounds, and the
// pixels of a short block at the end of a chunk, take a 1-pixel × 4-OC
// path; OC%4 leftover channels take a scalar path.
//
// Accumulation-order contract: every output accumulates its products
// in (kh, kw, ic) ascending order from +0, skipping out-of-bounds
// taps, one float32 `sum += x*w` step at a time (no math.FMA), exactly
// as a direct convolution loop does. The blocking only changes which
// outputs advance together, never the order of one output's sum, so
// the result is bit-identical to the direct loop whatever the tile
// path, the chunk partition or GOMAXPROCS. That is what keeps planned
// vs unplanned, batched vs unbatched and fleet vs server execution
// bit-identical.
func (c *Conv2D) RunInto(dst *tensor.Tensor, x, w, bias *tensor.Tensor) *tensor.Tensor {
	s := c.Shape
	xs, ws := x.Shape(), w.Shape()
	if len(xs) != 4 || xs[0] != s.N || xs[1] != s.H || xs[2] != s.W || xs[3] != s.IC {
		panic(fmt.Sprintf("cutlass: conv input shape %v != NHWC of %+v", xs, s))
	}
	if len(ws) != 4 || ws[0] != s.OC || ws[1] != s.KH || ws[2] != s.KW || ws[3] != s.IC {
		panic(fmt.Sprintf("cutlass: conv weight shape %v != OHWI of %+v", ws, s))
	}
	if !c.SupportsProblem() {
		panic(fmt.Sprintf("cutlass: conv %+v violates alignment %d/%d/%d",
			s, c.Config.AlignA, c.Config.AlignB, c.Config.AlignC))
	}
	var bd []float32
	if bias != nil {
		if bias.NumElements() != s.OC {
			panic(fmt.Sprintf("cutlass: bias length %d != OC %d", bias.NumElements(), s.OC))
		}
		bd = bias.Data()
	}
	oh, ow := s.OutH(), s.OutW()
	out := dst
	if out == nil {
		out = tensor.NewWithLayout(c.Epilogue.OutDType, tensor.LayoutNHWC, s.N, oh, ow, s.OC)
	} else if out.NumElements() != s.N*oh*ow*s.OC {
		panic(fmt.Sprintf("cutlass: conv destination has %d elements, want NHWC (%d,%d,%d,%d)",
			out.NumElements(), s.N, oh, ow, s.OC))
	}
	xd, wd, od := x.Data(), w.Data(), out.Data()

	parallelRows(s.N*oh, func(r0, r1 int) {
		c.convPixels(od, xd, wd, bd, r0*ow, r1*ow)
	})
	// INT8 outputs are quantized dynamically with a serial max-abs scan
	// (see Gemm.run) so the result is partitioning-independent.
	if c.Epilogue.OutDType == tensor.INT8 {
		out.CalibrateScale()
	}
	return out
}

// convBlock is the pixel-block height of the micro-kernel.
const convBlock = 4

// convPixels computes output pixels [p0, p1) of the flattened
// N·OH·OW dimension, block by block (see RunInto).
//
// Along one filter row kh, a pixel's in-bounds taps form one kw
// interval, and kw-adjacent taps sit IC apart in both the NHWC
// activation and the OHWI weights, so the interval is a single
// contiguous K-run in (kw, ic) accumulation order. The taps all four
// pixels of a block share go through tile4x4; each pixel's extra
// leading and trailing taps go through tile1x4 before and after them.
func (c *Conv2D) convPixels(od, xd, wd, bd []float32, p0, p1 int) {
	s := c.Shape
	oh, ow := s.OutH(), s.OutW()
	ic, oc := s.IC, s.OC
	k := kRun{xd: xd, wd: wd, ic: ic, kStride: s.KH * s.KW * ic, ocBlocks: oc - oc%4}
	quant := c.Epilogue.OutDType == tensor.FP16

	accp := getAcc(convBlock * oc)
	defer putAcc(accp)
	acc := *accp // pixel q of the block owns acc[q*oc : (q+1)*oc]

	var (
		xbase, ih0, iw0 [convBlock]int // per-pixel image offset and top-left tap
		xrow            [convBlock]int // per-pixel activation offset of (kh, kw=0)
		lo, hi          [convBlock]int // per-pixel in-bounds kw interval of row kh
	)
	for pb := p0; pb < p1; pb += convBlock {
		np := min(convBlock, p1-pb)
		for q := 0; q < np; q++ {
			p := pb + q
			n, rem := p/(oh*ow), p%(oh*ow)
			xbase[q] = n * s.H * s.W * ic
			ih0[q] = (rem/ow)*s.StrideH - s.PadH
			iw0[q] = (rem%ow)*s.StrideW - s.PadW
		}
		clear(acc[:np*oc])
		for kh := 0; kh < s.KH; kh++ {
			wrow := kh * s.KW * ic
			shared0, shared1 := 0, s.KW // kw interval every pixel has in bounds
			for q := 0; q < np; q++ {
				ih := ih0[q] + kh
				lo[q], hi[q] = max(0, -iw0[q]), min(s.KW, s.W-iw0[q])
				xrow[q] = xbase[q] + (ih*s.W+iw0[q])*ic
				if ih < 0 || ih >= s.H || lo[q] >= hi[q] {
					lo[q], hi[q], xrow[q] = 0, 0, 0
				}
				shared0, shared1 = max(shared0, lo[q]), min(shared1, hi[q])
			}
			if np < convBlock || shared0 >= shared1 {
				for q := 0; q < np; q++ {
					k.tile1x4(acc[q*oc:(q+1)*oc], xrow[q], wrow, lo[q], hi[q])
				}
			} else {
				for q := 0; q < np; q++ {
					k.tile1x4(acc[q*oc:(q+1)*oc], xrow[q], wrow, lo[q], shared0)
				}
				k.tile4x4(acc, oc, &xrow, wrow, shared0, shared1)
				for q := 0; q < np; q++ {
					k.tile1x4(acc[q*oc:(q+1)*oc], xrow[q], wrow, shared1, hi[q])
				}
			}
			for q := 0; q < np; q++ {
				k.scalar(acc[q*oc:(q+1)*oc], xrow[q], wrow, lo[q], hi[q])
			}
		}
		for q := 0; q < np; q++ {
			orow := od[(pb+q)*oc : (pb+q+1)*oc]
			for o, a := range acc[q*oc : (q+1)*oc] {
				var cv float32
				if bd != nil {
					cv = bd[o]
				}
				v := c.Epilogue.apply(a, cv)
				if quant {
					v = fp16.ToFloat32(fp16.FromFloat32(v))
				}
				orow[o] = v
			}
		}
	}
}

// kRun addresses the K-runs of one convolution: taps [kw0, kw1) of
// one filter row, whose activations start at xd[x+kw0*IC] and whose
// weights for output channel o start at wd[o*kStride+w+kw0*IC].
type kRun struct {
	xd, wd      []float32
	ic, kStride int
	ocBlocks    int // OC rounded down to a multiple of 4
}

// tile4x4 adds the four pixels' products over taps [kw0, kw1) to
// acc[q*ldc+o] for every OC block. Each 4×4 tile runs as two 4×2
// halves: 8 accumulators plus 4 activation and 2 weight values fit
// the 15 float registers Go allocates on amd64, where one pass over
// all 16 accumulators spills them to the stack on every K step.
func (k *kRun) tile4x4(acc []float32, ldc int, x *[convBlock]int, w, kw0, kw1 int) {
	a, b, ws := kw0*k.ic, kw1*k.ic, k.kStride
	x0, x1 := k.xd[x[0]+a:x[0]+b], k.xd[x[1]+a:x[1]+b]
	x2, x3 := k.xd[x[2]+a:x[2]+b], k.xd[x[3]+a:x[3]+b]
	for o := 0; o < k.ocBlocks; o += 4 {
		w0 := o*ws + w
		dot4x2(acc[o:], ldc, x0, x1, x2, x3, k.wd[w0+a:w0+b], k.wd[w0+ws+a:w0+ws+b])
		dot4x2(acc[o+2:], ldc, x0, x1, x2, x3, k.wd[w0+2*ws+a:w0+2*ws+b], k.wd[w0+3*ws+a:w0+3*ws+b])
	}
}

// tile1x4 adds one pixel's products over taps [kw0, kw1) to acc[o]
// for o < ocBlocks.
func (k *kRun) tile1x4(acc []float32, x, w, kw0, kw1 int) {
	if kw0 >= kw1 {
		return
	}
	a, b, ws := kw0*k.ic, kw1*k.ic, k.kStride
	xs := k.xd[x+a : x+b]
	for o := 0; o < k.ocBlocks; o += 4 {
		w0 := o*ws + w
		dot1x4(acc[o:o+4], xs, k.wd[w0+a:w0+b], k.wd[w0+ws+a:w0+ws+b],
			k.wd[w0+2*ws+a:w0+2*ws+b], k.wd[w0+3*ws+a:w0+3*ws+b])
	}
}

// scalar adds one pixel's products over taps [kw0, kw1) to the OC%4
// leftover channels, acc[o] for o >= ocBlocks.
func (k *kRun) scalar(acc []float32, x, w, kw0, kw1 int) {
	a, b := kw0*k.ic, kw1*k.ic
	xs := k.xd[x+a : x+b]
	for o := k.ocBlocks; o < len(acc); o++ {
		w0 := o*k.kStride + w
		sum := acc[o]
		for i, wv := range k.wd[w0+a : w0+b] {
			sum += xs[i] * wv
		}
		acc[o] = sum
	}
}

// dot4x2 adds the 4-pixel × 2-OC tile of products x_q·w_j to
// acc[q*ldc+j], one K step at a time.
func dot4x2(acc []float32, ldc int, x0, x1, x2, x3, w0, w1 []float32) {
	r0, r1, r2, r3 := acc[0:2], acc[ldc:ldc+2], acc[2*ldc:2*ldc+2], acc[3*ldc:3*ldc+2]
	c00, c01 := r0[0], r0[1]
	c10, c11 := r1[0], r1[1]
	c20, c21 := r2[0], r2[1]
	c30, c31 := r3[0], r3[1]
	n := len(x0)
	x1, x2, x3 = x1[:n], x2[:n], x3[:n]
	w0, w1 = w0[:n], w1[:n]
	for i, a0 := range x0 {
		a1, a2, a3 := x1[i], x2[i], x3[i]
		b0, b1 := w0[i], w1[i]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
	}
	r0[0], r0[1] = c00, c01
	r1[0], r1[1] = c10, c11
	r2[0], r2[1] = c20, c21
	r3[0], r3[1] = c30, c31
}

// dot1x4 is the 1-pixel × 4-OC form of dot4x2 for acc[0:4].
func dot1x4(acc []float32, x, w0, w1, w2, w3 []float32) {
	acc = acc[:4]
	c0, c1, c2, c3 := acc[0], acc[1], acc[2], acc[3]
	n := len(x)
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for i, a := range x {
		c0 += a * w0[i]
		c1 += a * w1[i]
		c2 += a * w2[i]
		c3 += a * w3[i]
	}
	acc[0], acc[1], acc[2], acc[3] = c0, c1, c2, c3
}

// Desc lowers the convolution to a device kernel descriptor using the
// implicit-GEMM dimensions. Activation traffic counts the true NHWC
// footprint (halo overlap between filter taps hits L2/SMEM, not DRAM).
func (c *Conv2D) Desc(d *gpu.Device) gpu.KernelDesc {
	s := c.Shape
	m, n, k := s.ImplicitGemm()
	cfg := c.Config
	tilesM, tilesN := cfg.tileCounts(m, n)
	esize := cfg.DType.Size()

	g := 1 << cfg.SwizzleLog
	if g > tilesM {
		g = tilesM
	}
	if g > tilesN {
		g = tilesN
	}
	// Activation footprint re-read once per column-tile group; weight
	// footprint once per row-tile group — unless the operand stays
	// L2-resident, in which case DRAM sees it once.
	actB := L2Discounted(d, float64(s.N*s.H*s.W*s.IC)*float64(esize), (tilesN+g-1)/g)
	wB := L2Discounted(d, float64(s.OC*s.KH*s.KW*s.IC)*float64(esize), (tilesM+g-1)/g)
	loadB := actB + wB
	if bias := c.Epilogue; bias.Beta != 0 && bias.BiasVector {
		loadB += float64(s.OC * esize)
	}
	storeB := float64(m) * float64(n) * float64(c.Epilogue.OutDType.Size())

	flops := 2*float64(m)*float64(n)*float64(k) + c.Epilogue.flopsPerElement()*float64(m)*float64(n)

	align := cfg.AlignA
	if cfg.AlignB < align {
		align = cfg.AlignB
	}
	if cfg.AlignC < align {
		align = cfg.AlignC
	}
	// Implicit-GEMM fprop pays extra predication and pointer math in
	// its main loop versus a plain GEMM.
	issue := cfg.issueEff(k) * 0.72
	return gpu.KernelDesc{
		Name:            c.Name(),
		GridBlocks:      tilesM * tilesN,
		ThreadsPerBlock: cfg.Threads(),
		RegsPerThread:   cfg.RegsPerThread() + 16, // im2col iterator state
		SharedMemBytes:  cfg.SharedMemBytes(),
		FLOPs:           flops,
		GlobalLoadB:     loadB,
		GlobalStoreB:    storeB,
		OpClass:         cfg.Op,
		DType:           cfg.DType,
		AlignmentElems:  align,
		IssueEff:        issue,
		MemEff:          0.9,
	}
}

// Time prices one launch on the device model.
func (c *Conv2D) Time(d *gpu.Device) float64 { return d.KernelTime(c.Desc(d)) }

// ReferenceConv2D computes the convolution directly with FP64
// accumulation, the oracle for kernel validation.
func ReferenceConv2D(s ConvShape, x, w, bias *tensor.Tensor, epi Epilogue) *tensor.Tensor {
	oh, ow := s.OutH(), s.OutW()
	out := tensor.NewWithLayout(epi.OutDType, tensor.LayoutNHWC, s.N, oh, ow, s.OC)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	for in := 0; in < s.N; in++ {
		for io := 0; io < oh; io++ {
			for jo := 0; jo < ow; jo++ {
				for oc := 0; oc < s.OC; oc++ {
					sum := 0.0
					for kh := 0; kh < s.KH; kh++ {
						ih := io*s.StrideH - s.PadH + kh
						if ih < 0 || ih >= s.H {
							continue
						}
						for kw := 0; kw < s.KW; kw++ {
							iw := jo*s.StrideW - s.PadW + kw
							if iw < 0 || iw >= s.W {
								continue
							}
							for ic := 0; ic < s.IC; ic++ {
								sum += float64(xd[((in*s.H+ih)*s.W+iw)*s.IC+ic]) *
									float64(wd[((oc*s.KH+kh)*s.KW+kw)*s.IC+ic])
							}
						}
					}
					var cv float32
					if bias != nil {
						cv = bias.Data()[oc]
					}
					od[((in*oh+io)*ow+jo)*s.OC+oc] = epi.apply(float32(sum), cv)
				}
			}
		}
	}
	if epi.OutDType == tensor.INT8 {
		out.CalibrateScale() // match the templated kernels' dynamic scale
	} else {
		out.Quantize()
	}
	return out
}
