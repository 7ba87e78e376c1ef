package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
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

// midMean returns the mean of the values between the first and third
// quartiles: a median that stays fine-grained when the values are coarsely
// quantized.
func midMean(xs []float64) float64 {
	lo, hi := quantile(xs, 0.25), quantile(xs, 0.75)
	sum, n := 0.0, 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			sum += x
			n++
		}
	}
	return ratio(sum, float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// high-water RSS mark (VmHWM) at the current RSS, so peakRSSMB covers only
// what follows. It does nothing where /proc/self/clear_refs is unavailable.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort
}

// peakRSSMB reads the process's high-water resident set size (VmHWM) from
// /proc. It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
