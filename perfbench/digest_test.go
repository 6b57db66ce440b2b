package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"heb/internal/sim"
)

func sampleResult() sim.Result {
	r := sim.Result{
		Scheme:           "HEB-D",
		Duration:         24 * time.Hour,
		Steps:            86400,
		EnergyEfficiency: 0.93,
		SlotPeaks:        []float64{300, 310.5},
		SlotValleys:      []float64{200},
	}
	r.BatteryWear.ThroughputAh = 12.5
	r.RelaySwitches[1] = 7
	return r
}

func TestResultDigestIsStable(t *testing.T) {
	r := sampleResult()
	a, err := resultDigest(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := resultDigest(sampleResult())
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("digest changed between calls: %s then %s", a, b)
		}
	}
}

// TestResultDigestCoversEveryField changes each leaf field of a result
// in turn, including nested structs, array elements and slices, and
// checks that every change moves the digest.
func TestResultDigestCoversEveryField(t *testing.T) {
	base, err := resultDigest(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{base: true}
	fields := 0
	var visit func(path string, get func(*sim.Result) reflect.Value)
	visit = func(path string, get func(*sim.Result) reflect.Value) {
		probe := sampleResult()
		v := get(&probe)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				i := i
				visit(path+"."+v.Type().Field(i).Name, func(r *sim.Result) reflect.Value { return get(r).Field(i) })
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				i := i
				visit(path+"[]", func(r *sim.Result) reflect.Value { return get(r).Index(i) })
			}
			return
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: test does not know how to change kind %s", path, v.Kind())
		}
		fields++
		d, err := resultDigest(probe)
		if err != nil {
			t.Fatal(err)
		}
		if seen[d] {
			t.Errorf("changing %s did not produce a new digest", path)
		}
		seen[d] = true
	}
	visit("Result", func(r *sim.Result) reflect.Value { return reflect.ValueOf(r).Elem() })
	if fields < 30 {
		t.Fatalf("visited only %d fields", fields)
	}
}

func TestResultDigestSeesNegativeZero(t *testing.T) {
	r := sampleResult()
	r.REU = 0
	a, _ := resultDigest(r)
	r.REU = math.Copysign(0, -1)
	b, _ := resultDigest(r)
	if a == b {
		t.Fatal("0 and -0 digest alike; floats must be compared by their bits")
	}
}
