package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a node's /metrics: counter and gauge
// values, and histograms as cumulative (upper bound, count) buckets.
type promSnapshot struct {
	values map[string]float64
	hists  map[string][]bucket
}

type bucket struct {
	le  float64
	cum float64
}

func scrape(ctx context.Context, url string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return promSnapshot{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return promSnapshot{}, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return promSnapshot{}, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the Prometheus text exposition written by
// trace.Registry.WriteProm.
func parseProm(r io.Reader) (promSnapshot, error) {
	p := promSnapshot{values: map[string]float64{}, hists: map[string][]bucket{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return p, fmt.Errorf("metrics: malformed line %q", line)
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return p, fmt.Errorf("metrics: %q: %w", line, err)
		}
		if name, le, ok := strings.Cut(key, "_bucket{le=\""); ok {
			ub, err := strconv.ParseFloat(strings.TrimSuffix(le, "\"}"), 64)
			if err != nil {
				return p, fmt.Errorf("metrics: %q: %w", line, err)
			}
			p.hists[name] = append(p.hists[name], bucket{le: ub, cum: v})
			continue
		}
		p.values[key] = v
	}
	return p, sc.Err()
}

// delta is after − before for a counter.
func delta(before, after promSnapshot, name string) float64 {
	return after.values[name] - before.values[name]
}

// sumDelta sums delta over the counters whose name has the given prefix
// and suffix (per-backend families such as artery_cluster_backendN_...).
func sumDelta(before, after promSnapshot, prefix, suffix string) float64 {
	total := 0.0
	for name := range after.values {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += delta(before, after, name)
		}
	}
	return total
}

// histQuantile estimates the p-quantile of the observations a histogram
// received between two scrapes, interpolating inside the bucket exactly
// as trace.Histogram.Quantile does. It returns 0 without observations.
func histQuantile(before, after promSnapshot, name string, p float64) float64 {
	b, a := before.hists[name], after.hists[name]
	if len(a) == 0 {
		return 0
	}
	cum := make([]float64, len(a))
	for i := range a {
		cum[i] = a[i].cum
		if i < len(b) {
			cum[i] -= b[i].cum
		}
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	rank := p * total
	prev, lo := 0.0, 0.0
	for i, bk := range a {
		if math.IsInf(bk.le, 1) {
			break
		}
		if n := cum[i] - prev; n > 0 && cum[i] >= rank {
			return lo + (bk.le-lo)*math.Max(0, (rank-prev)/n)
		}
		prev, lo = cum[i], bk.le
	}
	return lo // the quantile sits in the +Inf bucket
}

// profileShares attributes CPU-profile samples to layers. Each share is
// the layer's CPU time over all sampled CPU time of the process.
//
//   - artery.new: the stack passes through the facade constructor
//     (calibration).
//   - core.run: the stack passes through core.(*Engine).run.
//   - kernels (readout.synth, readout.classify, predict, controller,
//     quantum, stabilizer): samples inside core.(*Engine).run, each given
//     to its innermost repository package, with internal/stats folded
//     into its caller; readout splits into pulse synthesis and the rest
//     (demodulation and classification).
//   - runtime.gc: a garbage-collector worker, assist or sweeper frame.
//   - net.http: any net/http frame.
func profileShares(samples []cpuSample) map[string]float64 {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.weight
		has := func(pred func(string) bool) bool {
			for _, f := range s.stack {
				if pred(f) {
					return true
				}
			}
			return false
		}
		if has(func(f string) bool { return f == "artery.New" || f == "artery.newSystem" }) {
			weights["artery.new_cpu_share"] += s.weight
		}
		if has(func(f string) bool { return strings.HasPrefix(f, "artery/internal/core.(*Engine).run") }) {
			weights["core.run_cpu_share"] += s.weight
			if k := kernelOf(s.stack); k != "" {
				weights[k] += s.weight
			}
		}
		if has(isGCFrame) {
			weights["runtime.gc_cpu_share"] += s.weight
		}
		if has(func(f string) bool { return strings.HasPrefix(f, "net/http.") }) {
			weights["net.http_cpu_share"] += s.weight
		}
	}
	shares := map[string]float64{}
	for _, name := range []string{
		"artery.new_cpu_share", "core.run_cpu_share", "readout.synth_cpu_share", "readout.classify_cpu_share",
		"predict.cpu_share", "controller.cpu_share", "quantum.cpu_share", "stabilizer.cpu_share",
		"runtime.gc_cpu_share", "net.http_cpu_share",
	} {
		if total > 0 {
			shares[name] = float64(weights[name]) / float64(total)
		} else {
			shares[name] = 0
		}
	}
	return shares
}

// kernelOf names the engine kernel a sample belongs to, or "" when its
// innermost repository package is none of the reported kernels.
func kernelOf(stack []string) string {
	for _, f := range stack {
		pkg, ok := repoPackage(f)
		if !ok || pkg == "stats" {
			continue
		}
		switch pkg {
		case "readout":
			if isSynthFunc(f) {
				return "readout.synth_cpu_share"
			}
			return "readout.classify_cpu_share"
		case "predict", "controller", "quantum", "stabilizer":
			return pkg + ".cpu_share"
		}
		return ""
	}
	return ""
}

// repoPackage returns the internal package of a repository function
// name ("artery/internal/readout.(*Calibration).Synthesize" → "readout").
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "artery/internal/")
	if !ok {
		return "", false
	}
	pkg, _, ok := strings.Cut(rest, ".")
	return pkg, ok
}

func isSynthFunc(fn string) bool {
	for _, s := range []string{"Synthesize", "buildCarrier", "carrierTemplate", "GenerateDataset", "PulsePool"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart":
		return true
	}
	return false
}

// median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the value at the highest percentile that still has at
// least ten samples beyond it (the 11th-largest sample), that percentile,
// and how many samples lie beyond it. With ten samples or fewer there is
// no such percentile; it then returns the maximum, with fewer beyond.
func tail(xs []float64) (v, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	n := len(xs)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return xs[i], 100 * float64(i+1) / float64(n), n - 1 - i
}
