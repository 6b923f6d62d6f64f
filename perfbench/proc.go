package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
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

// Runtime metrics the proc.* rows are computed from.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// procSample is one reading of the runtime's cumulative counters.
type procSample struct {
	at      time.Time
	samples []metrics.Sample
}

func sampleProc() procSample {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCycles}, {Name: rmGCPauses}, {Name: rmSchedLat}}
	metrics.Read(s)
	return procSample{at: time.Now(), samples: s}
}

// procDelta is what the runtime did between two samples.
type procDelta struct {
	seconds     float64
	allocBytes  float64
	gcCycles    float64
	gcPauseP99  float64 // seconds
	schedLatP99 float64 // seconds
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{seconds: b.at.Sub(a.at).Seconds()}
	d.allocBytes = uintDelta(a.samples[0], b.samples[0])
	d.gcCycles = uintDelta(a.samples[1], b.samples[1])
	d.gcPauseP99 = histP99(a.samples[2], b.samples[2])
	d.schedLatP99 = histP99(a.samples[3], b.samples[3])
	return d
}

func uintDelta(a, b metrics.Sample) float64 {
	if a.Value.Kind() != metrics.KindUint64 || b.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(b.Value.Uint64() - a.Value.Uint64())
}

// histP99 returns the 99th percentile of the observations a runtime
// histogram gained between two readings, as the upper edge of the bucket
// holding it; 0 when it gained none.
func histP99(a, b metrics.Sample) float64 {
	if a.Value.Kind() != metrics.KindFloat64Histogram || b.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	if len(ha.Counts) != len(hb.Counts) {
		return 0
	}
	var n uint64
	for i := range hb.Counts {
		n += hb.Counts[i] - ha.Counts[i]
	}
	if n == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(n)))
	var seen uint64
	for i := range hb.Counts {
		seen += hb.Counts[i] - ha.Counts[i]
		if seen >= want {
			edge := hb.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = hb.Buckets[i]
			}
			return edge
		}
	}
	return 0
}
