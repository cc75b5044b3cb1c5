package main

import "sort"

// summary is the median and quartiles of a sample, with its size.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the summary of xs. The quantiles use the same
// exclusive method as Python's statistics.quantiles, so the figures
// printed here match what a reader computes from the per-repetition
// values.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{N: n, Q1: cut(d, 1, 4), Q3: cut(d, 3, 4)}
	if n%2 == 1 {
		s.Median = d[n/2]
	} else {
		s.Median = (d[n/2-1] + d[n/2]) / 2
	}
	return s
}

// cut returns the i-th of the parts-1 cut points dividing sorted d into
// parts groups: statistics.quantiles(d, n=parts)[i-1].
func cut(d []float64, i, parts int) float64 {
	n := len(d)
	if n == 1 {
		return d[0]
	}
	m := n + 1
	j := i * m / parts
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*parts
	return (d[j-1]*float64(parts-delta) + d[j]*float64(delta)) / float64(parts)
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }
