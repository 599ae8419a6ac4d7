package qos

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func validRequest() Request {
	return Request{
		Bandwidth: Bounds{Min: 16e3, Max: 64e3},
		Delay:     0.1,
		Jitter:    0.02,
		Loss:      0.01,
		Traffic:   TrafficSpec{Sigma: 8e3, Rho: 16e3},
	}
}

func TestBoundsValidate(t *testing.T) {
	cases := []struct {
		b  Bounds
		ok bool
	}{
		{Bounds{1, 1}, true},
		{Bounds{1, 2}, true},
		{Bounds{0, 2}, false},
		{Bounds{-1, 2}, false},
		{Bounds{3, 2}, false},
	}
	for _, c := range cases {
		err := c.b.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.b, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrBandwidthBounds) {
			t.Errorf("error %v does not wrap ErrBandwidthBounds", err)
		}
	}
}

func TestBoundsClamp(t *testing.T) {
	b := Bounds{Min: 10, Max: 20}
	if got := b.Clamp(5); got != 10 {
		t.Errorf("Clamp(5) = %v", got)
	}
	if got := b.Clamp(15); got != 15 {
		t.Errorf("Clamp(15) = %v", got)
	}
	if got := b.Clamp(25); got != 20 {
		t.Errorf("Clamp(25) = %v", got)
	}
}

func TestBoundsWidth(t *testing.T) {
	if w := (Bounds{Min: 3, Max: 10}).Width(); w != 7 {
		t.Fatalf("Width = %v, want 7", w)
	}
	if w := Fixed(5).Width(); w != 0 {
		t.Fatalf("Fixed width = %v, want 0", w)
	}
}

func TestTrafficSpec(t *testing.T) {
	ts := TrafficSpec{Sigma: 100, Rho: 50}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (TrafficSpec{Sigma: -1, Rho: 1}).Validate(); err == nil {
		t.Fatal("negative sigma validated")
	}
	if err := (TrafficSpec{Sigma: 0, Rho: 0}).Validate(); err == nil {
		t.Fatal("zero rho validated")
	}
}

func TestRequestValidate(t *testing.T) {
	if err := validRequest().Validate(); err != nil {
		t.Fatal(err)
	}
	r := validRequest()
	r.Delay = 0
	if !errors.Is(r.Validate(), errDelayBound) {
		t.Error("zero delay accepted")
	}
	r = validRequest()
	r.Jitter = -0.1
	if !errors.Is(r.Validate(), errJitterBound) {
		t.Error("negative jitter accepted")
	}
	r = validRequest()
	r.Loss = 1
	if !errors.Is(r.Validate(), errLossBound) {
		t.Error("loss = 1 accepted")
	}
	r = validRequest()
	r.Bandwidth = Bounds{}
	if r.Validate() == nil {
		t.Error("zero bandwidth bounds accepted")
	}
}

// TestRequestValidateRejectsNonFinite sets each field of a valid request
// to NaN and to ±Inf in turn: every one must be refused with its field's
// error. A NaN fails every comparison, so a check written only as
// "v <= 0" lets it through.
func TestRequestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Request, float64)
		want error
	}{
		{"b_min", func(r *Request, v float64) { r.Bandwidth.Min = v }, ErrBandwidthBounds},
		{"b_max", func(r *Request, v float64) { r.Bandwidth.Max = v }, ErrBandwidthBounds},
		{"delay", func(r *Request, v float64) { r.Delay = v }, errDelayBound},
		{"jitter", func(r *Request, v float64) { r.Jitter = v }, errJitterBound},
		{"loss", func(r *Request, v float64) { r.Loss = v }, errLossBound},
		{"sigma", func(r *Request, v float64) { r.Traffic.Sigma = v }, errTrafficSpec},
		{"rho", func(r *Request, v float64) { r.Traffic.Rho = v }, errTrafficSpec},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := validRequest()
			f.set(&r, v)
			if err := r.Validate(); !errors.Is(err, f.want) {
				t.Errorf("%s = %v: Validate() = %v, want %v", f.name, v, err, f.want)
			}
		}
	}
}

func TestBestEffort(t *testing.T) {
	r := Request{}
	if !r.BestEffort() {
		t.Fatal("zero request not best-effort")
	}
	if validRequest().BestEffort() {
		t.Fatal("guaranteed request reported best-effort")
	}
}

func TestMobilityString(t *testing.T) {
	if Mobile.String() != "mobile" || Static.String() != "static" {
		t.Fatal("mobility strings wrong")
	}
	if Mobility(9).String() == "" {
		t.Fatal("unknown mobility produced empty string")
	}
}

// Property: Clamp always lands inside valid bounds and is idempotent.
func TestQuickClampInvariant(t *testing.T) {
	f := func(lo, width, v float64) bool {
		if lo != lo || width != width || v != v { // NaN guards
			return true
		}
		min := 1 + abs(lo)
		b := Bounds{Min: min, Max: min + abs(width)}
		c := b.Clamp(v)
		return c >= b.Min && c <= b.Max && b.Clamp(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
