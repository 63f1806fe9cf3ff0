package cutlass

import (
	"fmt"
	"testing"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// resNet50Convs lists the 53 convolutions of ResNet-50 at a 32×32
// input (models.ResNetAt(50, n, 32)): the 7x7 stem, then per
// bottleneck a 1x1 reduce, a strided 3x3, a 1x1 expand and, on each
// stage's first block, a 1x1 projection shortcut.
func resNet50Convs(n int) []ConvShape {
	conv := func(hw, ic, oc, k, stride, pad int) ConvShape {
		return ConvShape{N: n, H: hw, W: hw, IC: ic, OC: oc, KH: k, KW: k,
			StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
	}
	shapes := []ConvShape{conv(32, 3, 64, 7, 2, 3)}
	hw, ic := 8, 64 // after the stride-2 stem and stride-2 max pool
	for st, width := range []int{64, 128, 256, 512} {
		for r := 0; r < []int{3, 4, 6, 3}[st]; r++ {
			stride := 1
			if r == 0 && st > 0 {
				stride = 2
			}
			out := (hw-1)/stride + 1
			shapes = append(shapes,
				conv(hw, ic, width, 1, 1, 0),
				conv(hw, width, width, 3, stride, 1),
				conv(out, width, 4*width, 1, 1, 0))
			if r == 0 {
				shapes = append(shapes, conv(hw, ic, 4*width, 1, stride, 0))
			}
			hw, ic = out, 4*width
		}
	}
	return shapes
}

// BenchmarkConv2DResNet50 times the functional conv kernel over every
// ResNet-50-at-32² convolution and reports host GFLOP/s of nominal
// implicit-GEMM work (ConvShape.FLOPs, padding taps included).
//
//	go test -run '^$' -bench BenchmarkConv2DResNet50 ./internal/cutlass
func BenchmarkConv2DResNet50(b *testing.B) {
	cfg := convConfig()
	cfg.AlignA, cfg.AlignB, cfg.AlignC = 1, 1, 1
	for _, n := range []int{1, 8} {
		shapes := resNet50Convs(n)
		if len(shapes) != 53 {
			b.Fatalf("ResNet-50 has 53 convolutions, listed %d", len(shapes))
		}
		type op struct {
			conv       *Conv2D
			x, w, bias *tensor.Tensor
			dst        *tensor.Tensor
		}
		ops := make([]op, len(shapes))
		var flops float64
		for i, s := range shapes {
			conv, err := NewConv2D(s, cfg, BiasActivation(ActReLU), gpu.T4())
			if err != nil {
				b.Fatal(err)
			}
			bias := tensor.New(tensor.FP16, s.OC)
			bias.FillRandom(int64(3*i), 1)
			ops[i] = op{conv, randNHWC(int64(3*i+1), n, s.H, s.W, s.IC),
				randOHWI(int64(3*i+2), s.OC, s.KH, s.KW, s.IC), bias,
				tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, n, s.OutH(), s.OutW(), s.OC)}
			flops += s.FLOPs()
		}
		b.Run(fmt.Sprintf("b%d", n), func(b *testing.B) {
			for b.Loop() {
				for _, o := range ops {
					o.conv.RunInto(o.dst, o.x, o.w, o.bias)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
