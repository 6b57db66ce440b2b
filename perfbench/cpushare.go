package main

import (
	"strings"

	"heb/internal/obs/prof"
)

// cpuBuckets are the layers the CPU profile is rolled up into.
var cpuBuckets = []string{"esd", "sim", "core", "pat", "forecast", "power", "obs", "json", "runtime_gc", "other"}

// layerPackages maps this repository's packages, and encoding/json, to
// their bucket. Subpackages of a listed package share its bucket.
var layerPackages = map[string]string{
	"heb/internal/esd":      "esd",
	"heb/internal/sim":      "sim",
	"heb/internal/core":     "core",
	"heb/internal/pat":      "pat",
	"heb/internal/forecast": "forecast",
	"heb/internal/power":    "power",
	"heb/internal/obs":      "obs",
	"heb/internal/jsonx":    "json",
	"encoding/json":         "json",
}

// gcFramePrefixes name the runtime's memory manager: a runtime leaf
// sample with one of these in its stack is garbage collection or
// allocation work.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.mallocgc", "runtime.(*mheap)", "runtime.(*mcentral)",
	"runtime.(*mcache)", "runtime.(*sweepLocked)", "runtime.sweepone",
	"runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier",
}

// cpuShares rolls a CPU profile up into the flat share of CPU time per
// bucket, and returns the profile's sample count. A sample belongs to
// its leaf frame's package; a standard-library leaf (math, sort, sync,
// strconv, ...) is charged to its nearest caller in a listed layer, so
// math.Pow called from the supercap model counts as esd. Runtime leaves
// are runtime_gc when the memory manager is on the stack, else other.
// The shares sum to 1 whenever the profile holds any CPU time.
func cpuShares(p *prof.Profile) (shares map[string]float64, samples int64, err error) {
	cpuIdx, err := p.SampleTypeIndex("cpu")
	if err != nil {
		return nil, 0, err
	}
	countIdx, err := p.SampleTypeIndex("samples")
	if err != nil {
		return nil, 0, err
	}
	nanos := map[string]int64{}
	var total int64
	for _, s := range p.Samples {
		if cpuIdx >= len(s.Values) || countIdx >= len(s.Values) {
			continue
		}
		samples += s.Values[countIdx]
		v := s.Values[cpuIdx]
		nanos[bucketOf(p.Stack(s))] += v
		total += v
	}
	shares = make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
		if total > 0 {
			shares[b] = float64(nanos[b]) / float64(total)
		}
	}
	return shares, samples, nil
}

// bucketOf attributes one stack, leaf first.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(funcPackage(stack[0])) {
		for _, fn := range stack {
			for _, pre := range gcFramePrefixes {
				if strings.HasPrefix(fn, pre) {
					return "runtime_gc"
				}
			}
		}
		return "other"
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if b := layerOf(pkg); b != "" {
			return b
		}
		if !isStdlib(pkg) || isRuntime(pkg) {
			return "other"
		}
	}
	return "other"
}

func layerOf(pkg string) string {
	for p, b := range layerPackages {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return b
		}
	}
	return ""
}

// funcPackage extracts the import path from a pprof function name such
// as "heb/internal/esd.(*Pool).transfer" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may embed dotted paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// isStdlib reports a standard-library package: no dot in its first path
// element. The repository's own module is named "heb", so it is
// excluded by name.
func isStdlib(pkg string) bool {
	if pkg == "heb" || strings.HasPrefix(pkg, "heb/") {
		return false
	}
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".")
}
