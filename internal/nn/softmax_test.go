package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskLogits(t *testing.T) {
	out := MaskLogits([]float64{1, 2, 3}, []bool{true, false, true})
	if out[0] != 1 || !math.IsInf(out[1], -1) || out[2] != 3 {
		t.Fatalf("MaskLogits = %v", out)
	}
}

func TestMaskLogitsLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaskLogits([]float64{1}, []bool{true, false})
}

func TestSoftmaxSumsToOneAndRespectsMask(t *testing.T) {
	logits := MaskLogits([]float64{0.5, 1.5, -0.3, 2.0}, []bool{true, false, true, true})
	p := Softmax(logits)
	if p[1] != 0 {
		t.Fatal("masked action has nonzero probability")
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Highest logit wins.
	if Argmax(p) != 3 {
		t.Fatalf("Argmax = %d, want 3", Argmax(p))
	}
}

func TestLogSoftmaxStability(t *testing.T) {
	// Huge logits must not overflow.
	lp := LogSoftmax([]float64{1000, 1000, 999})
	for _, v := range lp {
		if math.IsNaN(v) || v > 0 {
			t.Fatalf("unstable log-softmax: %v", lp)
		}
	}
	var sum float64
	for _, v := range lp {
		sum += math.Exp(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("exp(logp) sums to %v", sum)
	}
}

func TestLogSoftmaxAllMaskedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogSoftmax([]float64{NegInf, NegInf})
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	probs := []float64{0.2, 0, 0.5, 0.3}
	counts := make([]int, 4)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(rng, probs)]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-probability action sampled")
	}
	for i, p := range probs {
		if p == 0 {
			continue
		}
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("action %d frequency %v, want ~%v", i, got, p)
		}
	}
}

func TestSampleCategoricalRoundingFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Sums to slightly less than 1: the last positive entry absorbs it.
	probs := []float64{0.4999999, 0.4999999}
	for i := 0; i < 100; i++ {
		idx := SampleCategorical(rng, probs)
		if idx != 0 && idx != 1 {
			t.Fatalf("sampled %d", idx)
		}
	}
}

func TestSampleCategoricalAllZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleCategorical(rand.New(rand.NewSource(1)), []float64{0, 0})
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 0}); h != 0 {
		t.Fatalf("deterministic entropy = %v", h)
	}
	if h := Entropy([]float64{0.5, 0.5}); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform entropy = %v, want ln 2", h)
	}
}

func TestLogSoftmaxGradMatchesFiniteDifference(t *testing.T) {
	logits := []float64{0.3, -1.2, 0.8, NegInf, 0.1}
	action := 2
	grad := LogSoftmaxGradInto(nil, logits, action)
	const eps = 1e-6
	for i := range logits {
		if math.IsInf(logits[i], -1) {
			if grad[i] != 0 {
				t.Fatalf("masked logit has gradient %v", grad[i])
			}
			continue
		}
		orig := logits[i]
		logits[i] = orig + eps
		up := LogSoftmax(logits)[action]
		logits[i] = orig - eps
		down := LogSoftmax(logits)[action]
		logits[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(grad[i]-numeric) > 1e-5 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad[i], numeric)
		}
	}
}

func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	prop := func(a, b, c, shift float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(shift) {
			return true
		}
		clamp := func(x float64) float64 { return math.Mod(x, 50) }
		l1 := []float64{clamp(a), clamp(b), clamp(c)}
		l2 := []float64{l1[0] + clamp(shift), l1[1] + clamp(shift), l1[2] + clamp(shift)}
		p1, p2 := Softmax(l1), Softmax(l2)
		for i := range p1 {
			if math.Abs(p1[i]-p2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: LogSoftmaxGradInto on an action whose logit is -inf used to zero
// the masked entry and then increment it, leaving a +1 gradient that
// pushed probability mass onto a disabled action. It must panic instead.
func TestLogSoftmaxGradMaskedActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gradient of a masked action did not panic")
		}
	}()
	logits := MaskLogits([]float64{1, 2, 3}, []bool{true, false, true})
	LogSoftmaxGradInto(nil, logits, 1)
}
