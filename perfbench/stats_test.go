package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentile(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
		wantErr bool
	}{
		{name: "p50 of 20 has exactly 10 beyond", samples: seq(20), p: 50, want: 10},
		{name: "p50 of 19 has 9 beyond", samples: seq(19), p: 50, wantErr: true},
		{name: "p90 of 100", samples: seq(100), p: 90, want: 90},
		{name: "p90 of 99 refused", samples: seq(99), p: 90, wantErr: true},
		{name: "p99 of 1000", samples: seq(1000), p: 99, want: 990},
		{name: "p99 of 999 refused", samples: seq(999), p: 99, wantErr: true},
		{name: "p99 of 2000 is the 1980th", samples: seq(2000), p: 99, want: 1980},
		{name: "nearest rank rounds up", samples: seq(25), p: 50, want: 13},
		{name: "failures sort above every latency", samples: append(seq(20), math.Inf(1)), p: 50, want: 11},
		{name: "empty", samples: nil, p: 50, wantErr: true},
		{name: "p out of range", samples: seq(100), p: 100, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := percentile(tt.samples, tt.p)
			if (err != nil) != tt.wantErr {
				t.Fatalf("percentile(%d samples, %g) err = %v, wantErr %v", len(tt.samples), tt.p, err, tt.wantErr)
			}
			if !tt.wantErr && got != tt.want {
				t.Errorf("percentile(%d samples, %g) = %g, want %g", len(tt.samples), tt.p, got, tt.want)
			}
		})
	}
}

func TestTailPercentileMatchesPercentile(t *testing.T) {
	all := seq(3000)
	tests := []struct {
		name    string
		keep    int
		p       float64
		wantErr bool
	}{
		{name: "p99 with the top 3% kept", keep: 90, p: 99},
		{name: "p99 with exactly the needed top", keep: 31, p: 99},
		{name: "p99 with one too few kept", keep: 30, p: 99, wantErr: true},
		{name: "p50 needs half the samples", keep: 1501, p: 50},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tailPercentile(all[len(all)-tt.keep:], len(all), tt.p)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if want, _ := percentile(all, tt.p); !tt.wantErr && got != want {
				t.Errorf("tailPercentile = %g, percentile = %g", got, want)
			}
		})
	}
	if _, err := tailPercentile(seq(500), 500, 99); err == nil {
		t.Error("p99 of 500 samples should be refused")
	}
}

func TestSortedMillisCountsFailuresAsInfinite(t *testing.T) {
	got := sortedMillis([]time.Duration{3 * time.Millisecond, time.Millisecond}, 2)
	want := []float64{1, 3, math.Inf(1), math.Inf(1)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	tests := []struct {
		name  string
		r     ratio
		value float64
		str   string
	}{
		{name: "carries its base", r: ratio{num: 3, den: 4}, value: 0.75, str: "0.7500 (3/4)"},
		{name: "zero numerator", r: ratio{num: 0, den: 7}, value: 0, str: "0.0000 (0/7)"},
		{name: "empty base", r: ratio{}, value: math.NaN(), str: "NaN (0/0)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := tt.r.value()
			if !(v == tt.value || math.IsNaN(v) && math.IsNaN(tt.value)) {
				t.Errorf("value() = %g, want %g", v, tt.value)
			}
			if s := tt.r.String(); s != tt.str {
				t.Errorf("String() = %q, want %q", s, tt.str)
			}
		})
	}
}

func TestCPUPerRequest(t *testing.T) {
	base := cpuTimes{user: time.Second, sys: 200 * time.Millisecond}
	tests := []struct {
		name     string
		after    cpuTimes
		requests int
		want     float64
		wantErr  bool
	}{
		{name: "user and system both count", after: cpuTimes{user: 2 * time.Second, sys: 700 * time.Millisecond}, requests: 1000, want: 1500},
		{name: "no cpu spent", after: base, requests: 10, want: 0},
		{name: "no requests", after: base, requests: 0, wantErr: true},
		{name: "clock went backwards", after: cpuTimes{user: time.Second}, requests: 1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := cpuPerRequest(base, tt.after, tt.requests)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if !tt.wantErr && math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("cpuPerRequest = %g µs, want %g", got, tt.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{in: []float64{3, 1, 2}, want: 2},
		{in: []float64{4, 1, 3, 2}, want: 2.5},
		{in: []float64{5}, want: 5},
	}
	for _, tt := range tests {
		if got := median(tt.in); got != tt.want {
			t.Errorf("median(%v) = %g, want %g", tt.in, got, tt.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) should be NaN")
	}
}
