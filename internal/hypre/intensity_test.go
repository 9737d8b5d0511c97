package hypre

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestIntensityLeftExamples(t *testing.T) {
	cases := []struct {
		ql, qt, want float64
	}{
		{0, 0.5, 0.5}, // zero strength: equally preferred, value unchanged
		{1, 0.5, 1.0}, // 0.5 * 2^1 = 1.0
		{1, 0.6, 1.0}, // clamped at 1
		{0.5, 0.4, 0.4 * math.Sqrt2},
		{1, -0.5, -0.25}, // negative qt: sign flips the exponent
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := IntensityLeft(c.ql, c.qt); !almostEq(got, c.want) {
			t.Errorf("IntensityLeft(%v,%v) = %v, want %v", c.ql, c.qt, got, c.want)
		}
	}
}

func TestIntensityRightExamples(t *testing.T) {
	cases := []struct {
		ql, qt, want float64
	}{
		{0, 0.5, 0.5},
		{1, 0.5, 0.25},
		{1, -0.6, -1.0 * math.Min(1, 0.6*2)}, // -1.2 clamped to -1
		{0.5, 0.4, 0.4 / math.Sqrt2},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := IntensityRight(c.ql, c.qt); !almostEq(got, c.want) {
			t.Errorf("IntensityRight(%v,%v) = %v, want %v", c.ql, c.qt, got, c.want)
		}
	}
}

func TestComputeIntensityDispatch(t *testing.T) {
	if ComputeIntensity(Left, 1, 0.5) != IntensityLeft(1, 0.5) {
		t.Error("Left dispatch")
	}
	if ComputeIntensity(Right, 1, 0.5) != IntensityRight(1, 0.5) {
		t.Error("Right dispatch")
	}
}

// Property 1 of §4.4: Intensity_Left(ql, qt) >= qt for all legal inputs.
func TestIntensityLeftDominatesProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		ql := float64(a) / 65535     // [0,1]
		qt := float64(b)/32767.5 - 1 // [-1,1]
		l := IntensityLeft(ql, qt)
		return l >= qt-1e-12 && l <= MaxIntensity+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property 2 of §4.4: Intensity_Right(ql, qt) <= qt, within [-1,1].
func TestIntensityRightDominatedProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		ql := float64(a) / 65535
		qt := float64(b)/32767.5 - 1
		r := IntensityRight(ql, qt)
		return r <= qt+1e-12 && r >= MinIntensity-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property 3 of §4.4: zero qualitative strength leaves the value unchanged.
func TestZeroStrengthIdentityProperty(t *testing.T) {
	f := func(b uint16) bool {
		qt := float64(b)/32767.5 - 1
		return almostEq(IntensityLeft(0, qt), qt) && almostEq(IntensityRight(0, qt), qt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFAndExamples(t *testing.T) {
	// §4.6.1: f∧(0.8, 0.5) = 0.9 ; f∧(0.9, 0.2) = 0.92 ; f∧(0.5, 0.2) = 0.6.
	if got := FAnd(0.8, 0.5); !almostEq(got, 0.9) {
		t.Errorf("FAnd(0.8,0.5) = %v", got)
	}
	if got := FAnd(0.9, 0.2); !almostEq(got, 0.92) {
		t.Errorf("FAnd(0.9,0.2) = %v", got)
	}
	if got := FAndAll(0.8, 0.5, 0.2); !almostEq(got, 0.92) {
		t.Errorf("FAndAll = %v", got)
	}
	if got := FAndAll(); got != 0 {
		t.Errorf("empty FAndAll = %v", got)
	}
}

// Proposition 1: f∧ composition is order-independent.
func TestFAndOrderIndependenceProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p1 := float64(a) / 255
		p2 := float64(b) / 255
		p3 := float64(c) / 255
		x := FAnd(p1, FAnd(p2, p3))
		y := FAnd(p2, FAnd(p1, p3))
		z := FAnd(p3, FAnd(p1, p2))
		return almostEq(x, y) && almostEq(y, z) && almostEq(x, FAndAll(p1, p2, p3))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Inflationary behaviour: f∧(p1,p2) >= max(p1,p2) for non-negative inputs.
func TestFAndInflationaryProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		p1 := float64(a) / 255
		p2 := float64(b) / 255
		v := FAnd(p1, p2)
		return v >= p1-1e-12 && v >= p2-1e-12 && v <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFOrExamples(t *testing.T) {
	if got := FOr(0.8, 0.4); !almostEq(got, 0.6) {
		t.Errorf("FOr = %v", got)
	}
	if got := FOrSeq(0.8); got != 0.8 {
		t.Errorf("single FOrSeq = %v", got)
	}
	if got := FOrSeq(); got != 0 {
		t.Errorf("empty FOrSeq = %v", got)
	}
}

// Proposition 2: for p1 >= p2 >= p3, folding with the largest last gives the
// largest value: f∨(p1, f∨(p2,p3)) >= f∨(p2, f∨(p1,p3)) >= f∨(p3, f∨(p1,p2)).
func TestFOrOrderDependenceProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ps := []float64{float64(a) / 255, float64(b) / 255, float64(c) / 255}
		// sort descending
		if ps[0] < ps[1] {
			ps[0], ps[1] = ps[1], ps[0]
		}
		if ps[1] < ps[2] {
			ps[1], ps[2] = ps[2], ps[1]
		}
		if ps[0] < ps[1] {
			ps[0], ps[1] = ps[1], ps[0]
		}
		x := FOr(ps[0], FOr(ps[1], ps[2]))
		y := FOr(ps[1], FOr(ps[0], ps[2]))
		z := FOr(ps[2], FOr(ps[0], ps[1]))
		return x >= y-1e-12 && y >= z-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Reserved behaviour: min(p1,p2) <= f∨(p1,p2) <= max(p1,p2).
func TestFOrReservedProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		p1 := float64(a) / 255
		p2 := float64(b) / 255
		v := FOr(p1, p2)
		return v >= math.Min(p1, p2)-1e-12 && v <= math.Max(p1, p2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinPreferencesToExceed(t *testing.T) {
	// Proposition 6: K = log(1-p1)/log(1-p2).
	k := MinPreferencesToExceed(0.9, 0.5)
	if !almostEq(k, math.Log(0.1)/math.Log(0.5)) {
		t.Errorf("K = %v", k)
	}
	if MinPreferencesToExceed(0.5, 0.6) != 1 {
		t.Error("p2 >= p1 should need 1")
	}
	if !math.IsInf(MinPreferencesToExceed(0.5, 0), 1) {
		t.Error("p2 = 0 should need infinity")
	}
	if !math.IsInf(MinPreferencesToExceed(1, 0.5), 1) {
		t.Error("p1 = 1 should need infinity")
	}
}

// Sanity: FAndAll of ceil(K) copies of p2 indeed reaches p1.
func TestMinPreferencesBoundTightProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		p1 := 0.1 + 0.8*float64(a)/255 // (0.1, 0.9)
		p2 := 0.05 + 0.5*float64(b)/255
		k := MinPreferencesToExceed(p1, p2)
		if math.IsInf(k, 1) {
			return true
		}
		n := int(math.Ceil(k))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = p2
		}
		return FAndAll(vals...) >= p1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeQualitative(t *testing.T) {
	l, r, s := NormalizeQualitative("A", "B", 0.3)
	if l != "A" || r != "B" || s != 0.3 {
		t.Errorf("positive should be unchanged: %v %v %v", l, r, s)
	}
	// Proposition 7: negative strength flips the edge.
	l, r, s = NormalizeQualitative("A", "B", -0.3)
	if l != "B" || r != "A" || s != 0.3 {
		t.Errorf("negative should flip: %v %v %v", l, r, s)
	}
}

func TestValidation(t *testing.T) {
	if !ValidQuantIntensity(-1) || !ValidQuantIntensity(1) || !ValidQuantIntensity(0) {
		t.Error("bounds should be valid")
	}
	if ValidQuantIntensity(1.01) || ValidQuantIntensity(-1.01) || ValidQuantIntensity(math.NaN()) {
		t.Error("out of range accepted")
	}
	if ValidQualIntensity(-0.1) {
		t.Error("negative qualitative strength accepted")
	}
	if CheckQuantIntensity(2) == nil || CheckQualIntensity(-1) == nil {
		t.Error("checks should error")
	}
	if CheckQuantIntensity(0.5) != nil || CheckQualIntensity(0.5) != nil {
		t.Error("valid values rejected")
	}
}

func TestClampIntensity(t *testing.T) {
	if ClampIntensity(2) != 1 || ClampIntensity(-2) != -1 || ClampIntensity(0.3) != 0.3 {
		t.Error("clamp wrong")
	}
}
