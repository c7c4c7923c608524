package opt

import (
	"errors"
	"fmt"
	"math"

	"adaptivemm/internal/linalg"
)

// BarrierOptions tunes the interior-point solver. The zero value selects
// sensible defaults via the withDefaults method.
type BarrierOptions struct {
	// Tol is the duality-gap target; the barrier loop stops when
	// (#constraints)/t < Tol. Default 1e-7.
	Tol float64
	// Mu is the barrier parameter multiplier per outer iteration. Default 10.
	Mu float64
	// MaxNewton bounds Newton iterations per outer step. Default 50.
	MaxNewton int
	// MaxOuter bounds outer barrier iterations. Default 40.
	MaxOuter int
}

func (o BarrierOptions) withDefaults() BarrierOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.Mu <= 1 {
		o.Mu = 10
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 50
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 40
	}
	return o
}

// ErrInfeasible is returned when no strictly feasible starting point can be
// constructed (e.g. a constraint column of B is all zero while every cost
// is zero, or B has an empty row set).
var ErrInfeasible = errors.New("opt: could not construct a strictly feasible starting point")

// SolveBarrier minimizes the program with a log-barrier interior-point
// method and returns the full-length solution vector u (zero-cost variables
// are fixed at zero). The result is normalized so max_j (Bᵀu)_j = 1.
func SolveBarrier(p *Program, opts BarrierOptions) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	red, idx := p.reduced(1e-14)
	if len(idx) == 0 {
		return make([]float64, len(p.C)), nil
	}
	u, err := solveBarrierActive(red, opts)
	if err != nil {
		return nil, err
	}
	full := make([]float64, len(p.C))
	for r, i := range idx {
		full[i] = u[r]
	}
	p.Normalize(full)
	return full, nil
}

// solveBarrierActive runs the barrier method on a program whose costs are
// all strictly positive.
func solveBarrierActive(p *Program, opts BarrierOptions) ([]float64, error) {
	k := len(p.C)
	n := p.B.Cols()

	// Strictly feasible start: u = α·1 with α chosen so Bᵀu ≤ 1/2.
	colSums := linalg.MulVecT(p.B, ones(k))
	var maxSum float64
	for _, v := range colSums {
		if v > maxSum {
			maxSum = v
		}
	}
	if maxSum <= 0 {
		return nil, ErrInfeasible
	}
	u := make([]float64, k)
	for i := range u {
		u[i] = 0.5 / maxSum
	}

	nConstraints := float64(n + k)
	// Initial t: balance barrier against objective magnitude.
	t := 1.0
	if obj := p.Objective(u); obj > 0 && !math.IsInf(obj, 1) {
		t = math.Max(1, nConstraints/obj)
	}

	for outer := 0; outer < opts.MaxOuter; outer++ {
		if err := newtonCenter(p, u, t, opts); err != nil {
			return nil, err
		}
		if nConstraints/t < opts.Tol {
			break
		}
		t *= opts.Mu
	}
	return u, nil
}

// newtonCenter minimizes φ_t(u) = t·f(u) − Σ log s_j − Σ log u_i for fixed
// t, updating u in place.
func newtonCenter(p *Program, u []float64, t float64, opts BarrierOptions) error {
	k := len(p.C)
	n := p.B.Cols()
	pw := float64(p.Power)

	for iter := 0; iter < opts.MaxNewton; iter++ {
		s := slack(p, u)
		for _, v := range s {
			if v <= 0 {
				return fmt.Errorf("opt: interior point left the feasible region (slack %g)", v)
			}
		}
		// Gradient.
		grad := make([]float64, k)
		invS := make([]float64, n)
		for j, v := range s {
			invS[j] = 1 / v
		}
		// (B · 1/s)_i = Σ_j B_ij / s_j, summed left to right with one
		// accumulator rather than through linalg's unrolled dense kernel:
		// at large t the stopping test below sits at the rounding floor,
		// so how many Newton steps a centering takes depends on the last
		// bits of this product, and a fixed order keeps designs
		// reproducible whatever the dense kernel's unrolling.
		bInvS := make([]float64, k)
		for i := range bInvS {
			var acc float64
			for j, b := range p.B.Row(i) {
				acc += b * invS[j]
			}
			bInvS[i] = acc
		}
		for i := range grad {
			grad[i] = -pw*t*p.C[i]/ipow(u[i], p.Power+1) + bInvS[i] - 1/u[i]
		}
		// Hessian: diag part + B diag(1/s²) Bᵀ.
		hess := linalg.New(k, k)
		for i := 0; i < k; i++ {
			hess.Set(i, i, pw*(pw+1)*t*p.C[i]/ipow(u[i], p.Power+2)+1/(u[i]*u[i]))
		}
		// Accumulate B diag(1/s²) Bᵀ (symmetric).
		w := make([]float64, n)
		for j := range w {
			w[j] = invS[j] * invS[j]
		}
		addWeightedGram(hess, p.B, w)

		// Newton step: solve H Δ = -grad.
		neg := make([]float64, k)
		for i := range neg {
			neg[i] = -grad[i]
		}
		step, err := linalg.SolveSPD(hess, neg)
		if err != nil {
			return err
		}
		// Newton decrement: λ² = -gradᵀΔ (for convex φ this is ≥ 0).
		var dec float64
		for i := range step {
			dec += -grad[i] * step[i]
		}
		if dec < 0 {
			dec = 0
		}
		if dec/2 < 1e-10 {
			return nil
		}
		// Backtracking line search keeping strict feasibility.
		alpha := maxFeasibleStep(p, u, step)
		phi0 := barrierValue(p, u, t)
		gdotd := -dec
		for ; alpha > 1e-14; alpha *= 0.5 {
			cand := axpy(u, step, alpha)
			if !strictlyFeasible(p, cand) {
				continue
			}
			if barrierValue(p, cand, t) <= phi0+0.25*alpha*gdotd {
				copy(u, cand)
				break
			}
		}
		if alpha <= 1e-14 {
			// No progress possible; treat as converged at this t.
			return nil
		}
	}
	return nil
}

// slack returns 1 - Bᵀu.
func slack(p *Program, u []float64) []float64 {
	s := linalg.MulVecT(p.B, u)
	for j := range s {
		s[j] = 1 - s[j]
	}
	return s
}

func strictlyFeasible(p *Program, u []float64) bool {
	for _, v := range u {
		if v <= 0 {
			return false
		}
	}
	for _, v := range slack(p, u) {
		if v <= 0 {
			return false
		}
	}
	return true
}

// maxFeasibleStep returns a step length ≤ 1 that keeps u positive, leaving
// the slack check to the line search.
func maxFeasibleStep(p *Program, u, step []float64) float64 {
	alpha := 1.0
	for i := range u {
		if step[i] < 0 {
			if a := -0.99 * u[i] / step[i]; a < alpha {
				alpha = a
			}
		}
	}
	return alpha
}

func barrierValue(p *Program, u []float64, t float64) float64 {
	v := t * p.Objective(u)
	if math.IsInf(v, 1) {
		return v
	}
	for _, x := range u {
		if x <= 0 {
			return math.Inf(1)
		}
		v -= math.Log(x)
	}
	for _, x := range slack(p, u) {
		if x <= 0 {
			return math.Inf(1)
		}
		v -= math.Log(x)
	}
	return v
}

// addWeightedGram adds B diag(w) Bᵀ to the symmetric matrix h in place.
func addWeightedGram(h *linalg.Matrix, b *linalg.Matrix, w []float64) {
	k := b.Rows()
	for i := 0; i < k; i++ {
		bi := b.Row(i)
		hrow := h.Row(i)
		for j := i; j < k; j++ {
			bj := b.Row(j)
			var s float64
			for l, wl := range w {
				if bi[l] != 0 && bj[l] != 0 {
					s += wl * bi[l] * bj[l]
				}
			}
			hrow[j] += s
			if i != j {
				h.Set(j, i, h.At(j, i)+s)
			}
		}
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func axpy(u, step []float64, alpha float64) []float64 {
	out := make([]float64, len(u))
	for i := range u {
		out[i] = u[i] + alpha*step[i]
	}
	return out
}
