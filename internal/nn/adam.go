package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2014) over a parameter
// list, the gradient method used for all updates in the paper (§IV-C).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	step int
	m    []*Matrix
	v    []*Matrix

	// team spreads each parameter's elements over GOMAXPROCS goroutines;
	// cur, bc1 and bc2 describe the parameter being stepped.
	team     Team
	cur      int
	ps       []Param
	bc1, bc2 float64
}

// NewAdam constructs an optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8) and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update using the accumulated gradients of ps. The
// parameter list must be the same (same order and shapes) on every call:
// the moment estimates are indexed positionally, so a silently reordered
// or reshaped list would pair each parameter with another parameter's
// momenta and corrupt the update. Step panics with a clear message when
// the list changes shape between calls (the same guard Import applies to
// restored state).
func (a *Adam) Step(ps []Param) {
	if a.m == nil {
		a.m = make([]*Matrix, len(ps))
		a.v = make([]*Matrix, len(ps))
		for i, p := range ps {
			a.m[i] = NewMatrix(p.Value.Rows, p.Value.Cols)
			a.v[i] = NewMatrix(p.Value.Rows, p.Value.Cols)
		}
	} else {
		if len(ps) != len(a.m) {
			panic(fmt.Sprintf("nn: adam stepped with %d params, first call had %d", len(ps), len(a.m)))
		}
		for i, p := range ps {
			if p.Value.Rows != a.m[i].Rows || p.Value.Cols != a.m[i].Cols {
				panic(fmt.Sprintf("nn: adam param %d is %dx%d, first call had %dx%d",
					i, p.Value.Rows, p.Value.Cols, a.m[i].Rows, a.m[i].Cols))
			}
		}
	}
	a.step++
	a.bc1 = 1 - math.Pow(a.Beta1, float64(a.step))
	a.bc2 = 1 - math.Pow(a.Beta2, float64(a.step))
	a.ps = ps
	for i, p := range ps {
		a.cur = i
		a.team.For(len(p.Value.Data), 4, adamLoop{a})
	}
	a.ps = nil
}

// adamLoop updates elements [lo, hi) of the current parameter; every
// element's update is independent of the others.
type adamLoop struct{ a *Adam }

func (l adamLoop) Run(lo, hi int) {
	a := l.a
	p, m, v := a.ps[a.cur], a.m[a.cur], a.v[a.cur]
	for j := lo; j < hi; j++ {
		g := p.Grad.Data[j]
		m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
		v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
		mHat := m.Data[j] / a.bc1
		vHat := v.Data[j] / a.bc2
		p.Value.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}

// Steps returns how many updates have been applied.
func (a *Adam) Steps() int { return a.step }

// AdamState is a serializable snapshot of the optimizer's moment estimates,
// used by training checkpoints: resuming with restored moments reproduces
// the uninterrupted update sequence exactly.
type AdamState struct {
	Step int         `json:"step"`
	M    [][]float64 `json:"m,omitempty"`
	V    [][]float64 `json:"v,omitempty"`
}

// Export deep-copies the optimizer state. An optimizer that has never
// stepped exports an empty state.
func (a *Adam) Export() AdamState {
	st := AdamState{Step: a.step}
	for i := range a.m {
		st.M = append(st.M, append([]float64(nil), a.m[i].Data...))
		st.V = append(st.V, append([]float64(nil), a.v[i].Data...))
	}
	return st
}

// Import restores a snapshot taken with Export. ps must be the parameter
// list the optimizer steps over — it supplies the moment tensor shapes.
func (a *Adam) Import(ps []Param, st AdamState) error {
	if len(st.M) == 0 && len(st.V) == 0 {
		a.step = st.Step
		a.m, a.v = nil, nil
		return nil
	}
	if len(st.M) != len(ps) || len(st.V) != len(ps) {
		return fmt.Errorf("nn: adam state has %d/%d moment tensors, network has %d params",
			len(st.M), len(st.V), len(ps))
	}
	m := make([]*Matrix, len(ps))
	v := make([]*Matrix, len(ps))
	for i, p := range ps {
		if len(st.M[i]) != len(p.Value.Data) || len(st.V[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: adam moment tensor %d has %d/%d values, param expects %d",
				i, len(st.M[i]), len(st.V[i]), len(p.Value.Data))
		}
		m[i] = FromSlice(p.Value.Rows, p.Value.Cols, append([]float64(nil), st.M[i]...))
		v[i] = FromSlice(p.Value.Rows, p.Value.Cols, append([]float64(nil), st.V[i]...))
	}
	a.step = st.Step
	a.m, a.v = m, v
	return nil
}
