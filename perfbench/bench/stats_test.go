package bench

import (
	"math"
	"testing"
)

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.75, 40}} {
		if got := MinSamples(c.q); got != c.want {
			t.Errorf("MinSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort a copy
	}
	return xs
}

func TestPercentileRefusesTooFewSamples(t *testing.T) {
	for _, c := range []struct {
		q float64
		n int
	}{{0.5, 19}, {0.9, 99}, {0.99, 999}, {0.99, 0}} {
		if v, ok := Percentile(seq(c.n), c.q); ok || v != 0 {
			t.Errorf("Percentile(%d samples, %v) = %v, %v; want 0, false", c.n, c.q, v, ok)
		}
	}
	for _, q := range []float64{0, 1, -0.1, 1.5} {
		if _, ok := Percentile(seq(5000), q); ok {
			t.Errorf("Percentile accepted q=%v", q)
		}
	}
}

func TestPercentileValues(t *testing.T) {
	xs := seq(1000) // 1..1000
	orig := append([]float64(nil), xs...)
	for _, c := range []struct {
		q, want float64
	}{{0.5, 500.5}, {0.99, 990.01}, {0.9, 900.1}} {
		v, ok := Percentile(xs, c.q)
		if !ok || math.Abs(v-c.want) > 1e-9 {
			t.Errorf("Percentile(1..1000, %v) = %v, %v; want %v", c.q, v, ok, c.want)
		}
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("Percentile reordered its input")
		}
	}
	if v, ok := Percentile(seq(20), 0.5); !ok || v != 10.5 {
		t.Errorf("median of 1..20 at the minimum sample count = %v, %v; want 10.5", v, ok)
	}
}

func TestMedianMaxSum(t *testing.T) {
	if m := Median(nil); m != 0 {
		t.Errorf("Median(nil) = %v", m)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %v", m)
	}
	if m := Max([]float64{-3, -1, -2}); m != -1 {
		t.Errorf("Max = %v", m)
	}
	if s := Sum([]float64{1, 2, 3.5}); s != 6.5 {
		t.Errorf("Sum = %v", s)
	}
}
