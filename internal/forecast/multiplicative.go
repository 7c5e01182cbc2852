package forecast

import (
	"fmt"
)

// MultiplicativeHW is the multiplicative-seasonality Holt-Winters
// variant:
//
//	L[t] = α·T[t]/S[t−υ] + (1−α)(L[t−1] + B[t−1])
//	B[t] = β(L[t] − L[t−1]) + (1−β)B[t−1]
//	S[t] = γ·T[t]/L[t] + (1−γ)S[t−υ]
//	G[t] = (L[t−1] + B[t−1])·S[t−υ]
//
// It exists to document, by contrast, why the paper selects the
// *additive* model (§VI): the multiplicative recurrences are not
// linear in the observed series, so ADA's split and merge operations
// cannot manipulate its state exactly — it implements only Forecaster,
// not Linear. No detector or benchmark runs it; its tests
// (TestAdditiveSplitsExactlyMultiplicativeDoesNot) show the split
// error against the additive model's exact zero.
type MultiplicativeHW struct {
	alpha, beta, gamma float64
	period             int
	level, trend       float64
	season             []float64
	idx                int
}

var _ Forecaster = (*MultiplicativeHW)(nil)

// NewMultiplicativeHW builds a multiplicative Holt-Winters model from
// at least two seasonal cycles of positive history.
func NewMultiplicativeHW(alpha, beta, gamma float64, period int, history []float64) (*MultiplicativeHW, error) {
	if period < 1 {
		return nil, fmt.Errorf("forecast: period must be >= 1, got %d", period)
	}
	if len(history) < 2*period {
		return nil, fmt.Errorf("%w: need %d samples for period %d, have %d",
			ErrHistory, 2*period, period, len(history))
	}
	m := &MultiplicativeHW{
		alpha:  alpha,
		beta:   beta,
		gamma:  gamma,
		period: period,
		season: make([]float64, period),
	}
	u := period
	tail := history[len(history)-2*u:]
	var sumAll, sumNew, sumOld float64
	for i, v := range tail {
		sumAll += v
		if i < u {
			sumOld += v
		} else {
			sumNew += v
		}
	}
	m.level = sumAll / float64(2*u)
	if m.level <= 0 {
		return nil, fmt.Errorf("forecast: multiplicative model needs positive history mean, got %v", m.level)
	}
	m.trend = (sumNew - sumOld) / float64(2*u)
	for j, v := range tail[u:] {
		m.season[j] = v / m.level
		if m.season[j] <= 0 {
			m.season[j] = 1e-9
		}
	}
	return m, nil
}

// Period returns the seasonal period υ.
func (m *MultiplicativeHW) Period() int { return m.period }

// Forecast implements Forecaster.
func (m *MultiplicativeHW) Forecast() float64 {
	return (m.level + m.trend) * m.season[m.idx]
}

// Update implements Forecaster.
func (m *MultiplicativeHW) Update(actual float64) {
	sOld := m.season[m.idx]
	prevLevel := m.level
	m.level = m.alpha*actual/sOld + (1-m.alpha)*(m.level+m.trend)
	m.trend = m.beta*(m.level-prevLevel) + (1-m.beta)*m.trend
	if m.level > 0 {
		m.season[m.idx] = m.gamma*actual/m.level + (1-m.gamma)*sOld
	}
	m.idx = (m.idx + 1) % m.period
}
