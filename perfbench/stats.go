package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile of xs with at least ten
// samples beyond it, and its value; both are 0 when there are too few
// samples for even the median to qualify.
func tail(xs []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 0, 0
}

// resetPeakRSS clears the kernel's record of the process's peak resident
// set size, so the peak read later covers only what ran after the reset.
// Where the kernel refuses, the peak covers the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
