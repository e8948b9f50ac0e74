package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank-below rule tixload uses: sorted[floor(q*(n-1))].
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// numWindows splits a timed phase; tail and throughput are medians over
// the windows, so one compaction or GC stall moves one window, not the
// reported value.
const numWindows = 10

// windowed groups the samples that ended inside [0,dur) into numWindows
// equal windows by end time and returns, per window, the completed count
// and the q-quantile of latency in milliseconds.
func windowed(samples []sample, dur time.Duration, q float64) (counts []int, tails []float64) {
	width := int64(dur) / numWindows
	lat := make([][]float64, numWindows)
	for _, s := range samples {
		if s.end < 0 || s.end >= width*numWindows {
			continue
		}
		w := s.end / width
		lat[w] = append(lat[w], float64(s.lat)/1e6)
	}
	counts = make([]int, numWindows)
	tails = make([]float64, numWindows)
	for w := range lat {
		sort.Float64s(lat[w])
		counts[w] = len(lat[w])
		tails[w] = percentile(lat[w], q)
	}
	return counts, tails
}

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / 1e6
	}
	return out
}

// wireSummary reduces a timed phase to the three latency and rate
// end-to-end metrics of a wire workload.
func wireSummary(samples []sample, dur time.Duration, q float64) (throughput, p50ms, tailms float64) {
	counts, tails := windowed(samples, dur, q)
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / (dur.Seconds() / numWindows)
	}
	return median(rates), median(latenciesMs(samples)), median(tails)
}
