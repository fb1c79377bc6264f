package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing per operation.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// quantile is the nearest-rank q-quantile; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

// p90 is reported only with at least 100 samples, so at least ten lie
// beyond it; NaN otherwise.
func (s samples) p90() float64 {
	if len(s) < 100 {
		return math.NaN()
	}
	return s.quantile(0.9)
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// stderr is the standard error of the mean; NaN below two samples.
func (s samples) stderr() float64 {
	if len(s) < 2 {
		return math.NaN()
	}
	m, v := s.mean(), 0.0
	for _, x := range s {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(s)-1) / float64(len(s)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the result line's metric map; set drops nothing, so a NaN
// (a figure the run could not measure) surfaces as an error at output.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// orNil maps an unmeasured (NaN) figure to JSON null.
func orNil(v float64) any {
	if math.IsNaN(v) {
		return nil
	}
	return v
}
