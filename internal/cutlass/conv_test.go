package cutlass

import (
	"math"
	"runtime"
	"testing"

	"bolt/internal/fp16"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

func convConfig() GemmConfig {
	c := smallConfig()
	c.AlignA, c.AlignB, c.AlignC = 8, 8, 8
	return c
}

func randNHWC(seed int64, n, h, w, c int) *tensor.Tensor {
	t := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, n, h, w, c)
	t.FillRandom(seed, 1)
	return t
}

func randOHWI(seed int64, oc, kh, kw, ic int) *tensor.Tensor {
	t := tensor.New(tensor.FP16, oc, kh, kw, ic)
	t.FillRandom(seed, 0.5)
	return t
}

func TestConvShapeGeometry(t *testing.T) {
	s := Conv3x3(32, 56, 56, 64, 64, 1, 1)
	if s.OutH() != 56 || s.OutW() != 56 {
		t.Errorf("3x3 s1 p1 should preserve spatial dims, got %dx%d", s.OutH(), s.OutW())
	}
	s2 := Conv3x3(32, 56, 56, 64, 128, 2, 1)
	if s2.OutH() != 28 || s2.OutW() != 28 {
		t.Errorf("stride 2 should halve: got %dx%d", s2.OutH(), s2.OutW())
	}
	p := Conv1x1(32, 56, 56, 48, 48)
	if p.OutH() != 56 || p.OutW() != 56 || p.KH != 1 || p.PadH != 0 {
		t.Error("Conv1x1 geometry wrong")
	}
	m, n, k := s.ImplicitGemm()
	if m != 32*56*56 || n != 64 || k != 64*9 {
		t.Errorf("implicit gemm dims (%d,%d,%d)", m, n, k)
	}
	if s.FLOPs() != 2*float64(m)*float64(n)*float64(k) {
		t.Error("FLOPs wrong")
	}
}

func TestConvShapeValidate(t *testing.T) {
	good := Conv3x3(1, 8, 8, 8, 8, 1, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	bad := good
	bad.StrideH = 0
	if bad.Validate() == nil {
		t.Error("zero stride accepted")
	}
	bad2 := good
	bad2.H = 1
	bad2.KH = 5
	bad2.PadH = 0
	if bad2.Validate() == nil {
		t.Error("empty output accepted")
	}
	bad3 := good
	bad3.PadW = -1
	if bad3.Validate() == nil {
		t.Error("negative pad accepted")
	}
}

func TestConvMatchesReference(t *testing.T) {
	d := gpu.T4()
	s := Conv3x3(2, 8, 8, 8, 16, 1, 1)
	conv, err := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	x := randNHWC(1, 2, 8, 8, 8)
	w := randOHWI(2, 16, 3, 3, 8)
	got := conv.Run(x, w, nil)
	want := ReferenceConv2D(s, x, w, nil, DefaultEpilogue())
	if !tensor.AllClose(got, want, 1e-2, 1e-3) {
		t.Errorf("conv deviates from reference: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvStrideAndPad(t *testing.T) {
	d := gpu.T4()
	s := ConvShape{N: 1, H: 9, W: 9, IC: 8, OC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	conv, err := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	x := randNHWC(3, 1, 9, 9, 8)
	w := randOHWI(4, 8, 3, 3, 8)
	got := conv.Run(x, w, nil)
	if !got.Shape().Equal(tensor.Shape{1, 5, 5, 8}) {
		t.Fatalf("output shape %v, want (1,5,5,8)", got.Shape())
	}
	want := ReferenceConv2D(s, x, w, nil, DefaultEpilogue())
	if !tensor.AllClose(got, want, 1e-2, 1e-3) {
		t.Errorf("strided conv deviates: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvBiasEpilogue(t *testing.T) {
	d := gpu.T4()
	s := Conv1x1(1, 6, 6, 8, 8)
	for _, act := range []Activation{ActReLU, ActHardswish, ActGELU, ActSoftplus} {
		conv, err := NewConv2D(s, convConfig(), BiasActivation(act), d)
		if err != nil {
			t.Fatal(err)
		}
		x := randNHWC(5, 1, 6, 6, 8)
		w := randOHWI(6, 8, 1, 1, 8)
		bias := tensor.New(tensor.FP16, 8)
		bias.FillRandom(7, 1)
		got := conv.Run(x, w, bias)
		want := ReferenceConv2D(s, x, w, bias, BiasActivation(act))
		if !tensor.AllClose(got, want, 1e-2, 1e-3) {
			t.Errorf("%s conv epilogue deviates: %g", act, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestConv1x1IsPointwiseGemm(t *testing.T) {
	// A 1x1 conv over NHWC is exactly a GEMM with M=N*H*W.
	d := gpu.T4()
	s := Conv1x1(2, 4, 4, 16, 8)
	conv, _ := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	x := randNHWC(8, 2, 4, 4, 16)
	w := randOHWI(9, 8, 1, 1, 16)
	got := conv.Run(x, w, nil)

	g, _ := NewGemm(convConfig(), DefaultEpilogue(), d)
	a := tensor.Reshape(x, 2*4*4, 16)
	// Weights OHWI (8,1,1,16) -> (8,16); GEMM needs K x N = 16 x 8.
	wm := tensor.Transpose2D(tensor.Reshape(w, 8, 16))
	want := g.Run(a, wm, nil)
	if tensor.MaxAbsDiff(tensor.Reshape(got, 32, 8), want) != 0 {
		t.Error("1x1 conv != equivalent GEMM")
	}
}

func TestConvAlignmentRules(t *testing.T) {
	d := gpu.T4()
	// IC=3 (first conv layer) cannot use alignment 8.
	s := Conv3x3(1, 8, 8, 3, 8, 1, 1)
	conv, err := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	if conv.SupportsProblem() {
		t.Error("IC=3 must not satisfy alignment 8")
	}
	cfg := convConfig()
	cfg.AlignA, cfg.AlignB = 1, 1
	conv2, _ := NewConv2D(s, cfg, DefaultEpilogue(), d)
	if !conv2.SupportsProblem() {
		t.Error("alignment 1 must accept IC=3")
	}
}

func TestConvDescPricing(t *testing.T) {
	d := gpu.T4()
	s := Conv3x3(32, 56, 56, 64, 64, 1, 1)
	cfg := stdConfig()
	conv, _ := NewConv2D(s, cfg, DefaultEpilogue(), d)
	desc := conv.Desc(d)
	m, n, k := s.ImplicitGemm()
	if desc.FLOPs < 2*float64(m)*float64(n)*float64(k) {
		t.Error("conv FLOPs must cover the implicit GEMM")
	}
	// Implicit-GEMM conv must price below the equivalent explicit GEMM's
	// im2col traffic but above zero.
	bd := d.Breakdown(desc)
	if bd.Total <= 0 {
		t.Error("conv time must be positive")
	}
	// Achieved TFLOPS plausible for T4 tensor cores.
	tflops := desc.FLOPs / bd.Total / 1e12
	if tflops > 65 {
		t.Errorf("conv achieves %f TFLOPS > peak", tflops)
	}
}

func TestConvAlignmentAffectsSpeed(t *testing.T) {
	d := gpu.T4()
	// Memory-heavy conv: unaligned (align 2) vs aligned (align 8).
	s8 := Conv3x3(32, 20, 26, 48, 32, 1, 1)
	cfg8 := stdConfig()
	conv8, _ := NewConv2D(s8, cfg8, DefaultEpilogue(), d)

	s2 := Conv3x3(32, 20, 26, 46, 32, 1, 1)
	cfg2 := stdConfig()
	cfg2.AlignA, cfg2.AlignB, cfg2.AlignC = 2, 2, 2
	conv2, _ := NewConv2D(s2, cfg2, DefaultEpilogue(), d)

	// Despite doing slightly more work (48 vs 46 channels), the aligned
	// kernel should be faster — this is Table 3's padding premise.
	if conv8.Time(d) >= conv2.Time(d) {
		t.Errorf("aligned conv (%.3gus) should beat unaligned (%.3gus)",
			conv8.Time(d)*1e6, conv2.Time(d)*1e6)
	}
}

// directConv2D is the straightforward direct-convolution loop that
// Conv2D.RunInto's micro-kernel replaced: one float32 sum per (pixel,
// OC), accumulated in (kh, kw, ic) order with out-of-bounds taps
// skipped. It is the exact oracle for the blocked kernel.
func directConv2D(c *Conv2D, x, w, bias *tensor.Tensor) *tensor.Tensor {
	s := c.Shape
	oh, ow := s.OutH(), s.OutW()
	out := tensor.NewWithLayout(c.Epilogue.OutDType, tensor.LayoutNHWC, s.N, oh, ow, s.OC)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	acc := make([]float32, s.OC)
	for r := 0; r < s.N*oh; r++ {
		in, io := r/oh, r%oh
		for jo := 0; jo < ow; jo++ {
			clear(acc)
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
					xoff := ((in*s.H+ih)*s.W + iw) * s.IC
					for oc := 0; oc < s.OC; oc++ {
						woff := ((oc*s.KH+kh)*s.KW + kw) * s.IC
						sum := acc[oc]
						for ic := 0; ic < s.IC; ic++ {
							sum += xd[xoff+ic] * wd[woff+ic]
						}
						acc[oc] = sum
					}
				}
			}
			ooff := ((in*oh+io)*ow + jo) * s.OC
			for oc := 0; oc < s.OC; oc++ {
				var cv float32
				if bias != nil {
					cv = bias.Data()[oc]
				}
				v := c.Epilogue.apply(acc[oc], cv)
				if c.Epilogue.OutDType == tensor.FP16 {
					v = fp16.ToFloat32(fp16.FromFloat32(v))
				}
				od[ooff+oc] = v
			}
		}
	}
	if c.Epilogue.OutDType == tensor.INT8 {
		out.CalibrateScale()
	}
	return out
}

// TestConvMicroKernelBitIdentical pins the accumulation-order
// contract: the register-blocked kernel equals the direct loop bit for
// bit across tile paths (full 4x4 tiles, partial-tap and short pixel
// blocks, OC%4 leftovers), epilogues and chunk partitions.
func TestConvMicroKernelBitIdentical(t *testing.T) {
	d := gpu.T4()
	cfg := convConfig()
	cfg.AlignA, cfg.AlignB, cfg.AlignC = 1, 1, 1
	geoms := []struct {
		name                         string
		h, w, ic, oc, k, stride, pad int
	}{
		{"1x1 M%4=1", 5, 5, 64, 36, 1, 1, 0},
		{"1x1 stride2 oddIC", 7, 7, 17, 10, 1, 2, 0},
		{"3x3 stem IC=3", 6, 6, 3, 8, 3, 1, 1},
		{"3x3 stride2 oddIC OC%4=2", 9, 9, 9, 6, 3, 2, 1},
		{"3x3 pad0 nonsquare", 6, 5, 7, 5, 3, 1, 0},
		{"3x3 2x2 spatial", 2, 2, 5, 7, 3, 1, 1},
		{"3x3 1x1 spatial", 1, 1, 16, 13, 3, 1, 1},
		{"3x3 odd chunks", 23, 23, 5, 6, 3, 1, 1},
		{"7x7 stride2 pad3 IC=3", 16, 16, 3, 64, 7, 2, 3},
	}
	type epiCase struct {
		name string
		epi  Epilogue
		bias bool
	}
	var epis []epiCase
	for _, dt := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
		for _, e := range []epiCase{
			{"linear", DefaultEpilogue(), false},
			{"gelu", Epilogue{Alpha: 1, Act: ActGELU}, false},
			{"bias relu", BiasActivation(ActReLU), true},
			{"bias gelu", BiasActivation(ActGELU), true},
		} {
			e.epi.OutDType = dt
			e.name = dt.String() + " " + e.name
			epis = append(epis, e)
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for gi, g := range geoms {
		for _, n := range []int{1, 3, 8} {
			s := ConvShape{N: n, H: g.h, W: g.w, IC: g.ic, OC: g.oc, KH: g.k, KW: g.k,
				StrideH: g.stride, StrideW: g.stride, PadH: g.pad, PadW: g.pad}
			seed := int64(10 * gi)
			x := randNHWC(seed+1, n, g.h, g.w, g.ic)
			w := randOHWI(seed+2, g.oc, g.k, g.k, g.ic)
			bias := tensor.New(tensor.FP16, g.oc)
			bias.FillRandom(seed+3, 1)
			for _, e := range epis {
				conv, err := NewConv2D(s, cfg, e.epi, d)
				if err != nil {
					t.Fatal(err)
				}
				var b *tensor.Tensor
				if e.bias {
					b = bias
				}
				want := directConv2D(conv, x, w, b)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					got := conv.Run(x, w, b)
					if got.DType() != want.DType() || got.Scale() != want.Scale() {
						t.Fatalf("%s n=%d %s procs=%d: dtype/scale %v/%g, want %v/%g", g.name, n, e.name, procs,
							got.DType(), got.Scale(), want.DType(), want.Scale())
					}
					for i, v := range got.Data() {
						if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
							t.Fatalf("%s n=%d %s procs=%d: element %d = %g, direct loop %g",
								g.name, n, e.name, procs, i, v, want.Data()[i])
						}
					}
				}
			}
		}
	}
}

// TestConvRunIntoAllocs pins RunInto's per-call heap allocations: the
// micro-kernel keeps its scratch on the stack or in the accumulator
// pool, so the only allocation is the escaping parallelRows closure.
func TestConvRunIntoAllocs(t *testing.T) {
	// A batch-1 ResNet-50-at-32² stage-1 3x3 conv.
	conv, err := NewConv2D(Conv3x3(1, 8, 8, 64, 64, 1, 1), convConfig(), BiasActivation(ActReLU), gpu.T4())
	if err != nil {
		t.Fatal(err)
	}
	x, w := randNHWC(1, 1, 8, 8, 64), randOHWI(2, 64, 3, 3, 64)
	bias := tensor.New(tensor.FP16, 64)
	bias.FillRandom(3, 1)
	dst := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, 1, 8, 8, 64)
	conv.RunInto(dst, x, w, bias) // warm the accumulator pool
	if got := testing.AllocsPerRun(50, func() { conv.RunInto(dst, x, w, bias) }); got > 1 {
		t.Errorf("RunInto allocates %.1f times per call, want <= 1", got)
	}
}
