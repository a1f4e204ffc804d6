package main

import (
	"math"
	"sort"
	"time"
)

// hdQuantile is the Harrell-Davis estimate of the p-th quantile
// (0 < p < 1) of ds: a weighted mean of all order statistics, with
// weights from the Beta((n+1)p, (n+1)(1-p)) distribution. A latency
// sample mixes jobs of very different sizes, so its sample median can
// fall in a gap between two sizes and jump across it from run to run;
// the Harrell-Davis estimate moves smoothly and rests on many more
// samples than the one or two ranks beside the quantile.
func hdQuantile(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 1 {
		return s[0]
	}
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	var est float64
	prev := 0.0
	for i, d := range s {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * float64(d)
		prev = cur
	}
	return time.Duration(math.Round(est))
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by the continued fraction of Numerical Recipes (betacf), evaluated
// by the modified Lentz method.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	if x > (a+1)/(a+b+2) {
		return 1 - front*betaCF(b, a, 1-x)/b
	}
	return front * betaCF(a, b, x) / a
}

func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-14
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}
