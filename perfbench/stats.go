package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks (0 for an empty slice). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// mean returns the arithmetic mean (0 for an empty slice).
func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

func maxOf(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative count of heap bytes allocated by the
// process. Unlike runtime.ReadMemStats it does not stop the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far (0 where
// getrusage fails).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
