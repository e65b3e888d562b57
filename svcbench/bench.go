package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"artery"
	"artery/api"
	"artery/internal/store"
)

// report is the line printed before the result: everything needed to
// interpret or reproduce the run.
type report struct {
	Provenance provenance         `json:"provenance"`
	Digest     digest             `json:"digest"`
	Inputs     map[string]float64 `json:"input_properties"`
	Jobs       jobCounts          `json:"jobs"`
	SetupS     []float64          `json:"setup_samples_s"`
	Checks     []check            `json:"checks"`
	Spans      []layerTime        `json:"span_times,omitempty"`
	Files      []string           `json:"files,omitempty"`
}

type provenance struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceSHA  string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Toy        bool    `json:"toy,omitempty"`
	Method     string  `json:"method"`
}

// digest pins the simulated output: the result bytes and sim_* values of
// the first Jobs jobs, which every run of a seed completes.
type digest struct {
	Jobs            int     `json:"jobs"`
	ResultSHA256    string  `json:"result_sha256"`
	SimFeedbackNs   float64 `json:"sim_feedback_ns"`
	SimPredAccuracy float64 `json:"sim_pred_accuracy"`
}

type jobCounts struct {
	Run            int     `json:"run"`
	Failed         int     `json:"failed"`
	LatencySamples int     `json:"latency_samples"`
	TailPct        float64 `json:"job_tail_percentile"`
	TailBeyond     int     `json:"job_tail_samples_beyond"`
	FirstSamples   int     `json:"first_shot_samples"`
	FirstTailPct   float64 `json:"first_shot_tail_percentile"`
	FirstBeyond    int     `json:"first_shot_tail_samples_beyond"`
}

type check struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// snapshot is the process and service state at a phase boundary.
type snapshot struct {
	cpu        time.Duration
	totalAlloc uint64
	prom       []promSnapshot // per deployment node, entry first
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) (result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	sz, setupReps, warmup, replayBudget := fullSizes, 201, time.Second, 3*time.Second
	if o.toy {
		sz, setupReps, warmup, replayBudget = toySizes, 2, 0, 0
	}
	began := time.Now()
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "svcbench: %6.2fs %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
	}
	spec, err := workloadByName(sz, o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	workDir := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%v-%d", o.workload, o.seed, o.trace, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(workDir)

	// Set-up: boot the deployment several times; the last one serves.
	// The rest of the boots run after the measured traffic, so set-up
	// samples span the run instead of the first few milliseconds of it.
	before := setupReps/2 + 1
	setups, dep, err := boot(ctx, spec.Fleet, workDir, 0, before)
	if err != nil {
		return result{}, err
	}
	logf("set-up: %d boots, median %.6fs", before, median(append([]float64(nil), setups...)))
	closed := false
	defer func() {
		if !closed {
			dep.close()
		}
	}()

	t0 := time.Now().Add(warmup)
	window := time.Duration(o.seconds * float64(time.Second))
	phases := []time.Time{t0, t0.Add(window)}
	if o.trace {
		// An untraced half, then a traced half with the CPU profile on.
		phases = []time.Time{t0, t0.Add(window / 2), t0.Add(window)}
	}
	d := newDriver(spec, o.seed, dep.entry.url, phases)

	snaps := make([]snapshot, len(phases))
	var prof bytes.Buffer
	samplerErr := make(chan error, 1)
	go func() {
		samplerErr <- func() error {
			defer pprof.StopCPUProfile() // a no-op unless a traced phase was cut short
			for i, at := range phases {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(time.Until(at)):
				}
				if o.trace && i == 2 {
					pprof.StopCPUProfile()
				}
				s, err := takeSnapshot(ctx, dep, o.trace)
				if err != nil {
					return err
				}
				snaps[i] = s
				if o.trace && i == 1 {
					if err := pprof.StartCPUProfile(&prof); err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()
	driveErr := d.run(ctx, runtime.GOMAXPROCS(0))
	if err := <-samplerErr; err != nil {
		return result{}, fmt.Errorf("sampler: %w", err)
	}
	if driveErr != nil {
		return result{}, fmt.Errorf("drive: %w", driveErr)
	}
	jobs := d.sorted()
	logf("drive: %d jobs", len(jobs))

	// Checks outside the timed window.
	var checks []check
	addCheck := func(name string, err error) {
		c := check{Name: name, OK: err == nil}
		if err != nil {
			c.Error = err.Error()
			fmt.Fprintf(stderr, "svcbench: check %s failed: %v\n", name, err)
		}
		checks = append(checks, c)
	}
	failedJobs := 0
	for _, r := range jobs {
		if r.err != nil {
			failedJobs++
			if failedJobs <= 5 {
				fmt.Fprintf(stderr, "svcbench: job %d failed: %v\n", r.idx, r.err)
			}
		}
	}
	first := jobs[0]
	addCheck("bit_identity_vs_RunRangeStream", identityCheck(ctx, first))
	addCheck("resubmission_reproduces_result", resubmitCheck(ctx, d, first))
	logf("checks done")

	rep := &report{}
	metrics := map[string]float64{}
	if o.trace {
		rep.Spans, rep.Files, err = traceLayers(ctx, o, workDir, spec, d, jobs, replayBudget, prof.Bytes(), metrics, addCheck)
		if err != nil {
			return result{}, err
		}
		layerDeltas(snaps[1], snaps[2], jobs, d, metrics)
		metrics["trace_overhead_frac"] = 1 - ratio(rate(jobs, 1, phases), rate(jobs, 0, phases))
	}

	// Input properties, measured over the whole run.
	final, err := takeSnapshot(ctx, dep, true)
	if err != nil {
		return result{}, err
	}
	rep.Inputs = inputProperties(jobs, spec, final)
	for k, v := range rep.Inputs {
		metrics[k] = v
	}
	metrics["store.bytes_per_shot"] = 0
	if spec.Fleet {
		metrics["store.bytes_per_shot"] = ratio(float64(dirBytes(dep.dataDir)), final.prom[0].values["artery_cluster_shots_merged_total"])
	}
	closed = true
	if err := dep.close(); err != nil {
		return result{}, fmt.Errorf("shutdown: %w", err)
	}
	logf("shut down")
	after, last, err := boot(ctx, spec.Fleet, workDir, before, setupReps-before)
	if err != nil {
		return result{}, err
	}
	if last != nil {
		if err := last.close(); err != nil {
			return result{}, fmt.Errorf("set-up shutdown: %w", err)
		}
	}
	setups = append(setups, after...)
	rep.SetupS = setups
	logf("set-up: %d more boots", len(after))
	failedChecks := 0
	for _, c := range checks {
		if !c.OK {
			failedChecks++
		}
	}
	attempted := len(jobs) + len(checks)
	failed := failedJobs + failedChecks
	rep.Checks = checks
	rep.Jobs.Run, rep.Jobs.Failed = len(jobs), failedJobs
	rep.Digest = makeDigest(jobs, spec.DigestJobs)
	rep.Provenance = provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), SourceSHA: sourceDigest("."), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Traced: o.trace, Toy: o.toy,
		Method: fmt.Sprintf("closed loop: %d in-process clients each submit a job, stream it to its done-line, check it, submit the next; "+
			"%v warm-up, then a %v window (traced: untraced first half, CPU-profiled second half, then a span replay); set-up is the median of %d boots, split before and after the traffic",
			runtime.GOMAXPROCS(0), warmup, window, setupReps),
	}

	if !o.trace {
		e2e(jobs, phases, snaps, setups, rep, metrics)
		metrics["ok_frac"] = 1 - float64(failed)/float64(attempted)
		metrics["sim_feedback_ns"] = rep.Digest.SimFeedbackNs
		metrics["sim_pred_accuracy"] = rep.Digest.SimPredAccuracy
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := metrics[m.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, printResult(stdout, rep, res)
}

// boot deploys n times, closing each deployment before the next, and
// returns the boot times and the last deployment, still serving. Boot k
// journals under dir/data<k>.
func boot(ctx context.Context, fleet bool, dir string, first, n int) ([]float64, *deployment, error) {
	var times []float64
	var dep *deployment
	for k := first; k < first+n; k++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
			}
		}
		// Every boot's readiness probes open fresh connections.
		http.DefaultClient.CloseIdleConnections()
		t := time.Now()
		var err error
		dep, err = deploy(ctx, fleet, filepath.Join(dir, fmt.Sprintf("data%d", k)))
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, dep, nil
}

func takeSnapshot(ctx context.Context, dep *deployment, full bool) (snapshot, error) {
	s := snapshot{cpu: processCPU()}
	if !full {
		return s, nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc = ms.TotalAlloc
	for _, n := range dep.nodes() {
		p, err := scrape(ctx, n.url)
		if err != nil {
			return s, err
		}
		s.prom = append(s.prom, p)
	}
	return s, nil
}

// processCPU is the user+system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// work is the shots and jobs completed in phase ph, crediting each job
// the share of its submit→done interval that lies inside the phase, so
// jobs in flight at either edge count fractionally and bursty streams do
// not quantize the count.
func work(jobs []*jobRec, ph int, phases []time.Time) (shots, jobEq float64) {
	for _, r := range jobs {
		f := r.share(phases[ph], phases[ph+1])
		shots += f * float64(r.req.Shots)
		jobEq += f
	}
	return shots, jobEq
}

// rate is the shots completed per second in phase ph.
func rate(jobs []*jobRec, ph int, phases []time.Time) float64 {
	shots, _ := work(jobs, ph, phases)
	return shots / phases[ph+1].Sub(phases[ph]).Seconds()
}

// e2e computes the client-observed metrics of the measured window.
func e2e(jobs []*jobRec, phases []time.Time, snaps []snapshot, setups []float64, rep *report, m map[string]float64) {
	lo, hi := phases[0], phases[1]
	in := func(t time.Time) bool { return !t.IsZero() && !t.Before(lo) && t.Before(hi) }
	shots, jobEq := work(jobs, 0, phases)
	var lat, firstLat []float64
	for _, r := range jobs {
		if r.err == nil && in(r.done) {
			lat = append(lat, ms(r.done.Sub(r.submit)))
		}
		if in(r.first) {
			firstLat = append(firstLat, ms(r.first.Sub(r.submit)))
		}
	}
	secs := hi.Sub(lo).Seconds()
	m["shots_per_s"] = shots / secs
	m["jobs_per_s"] = jobEq / secs
	rep.Jobs.LatencySamples, rep.Jobs.FirstSamples = len(lat), len(firstLat)
	m["job_p50_ms"] = median(append([]float64(nil), lat...))
	m["job_tail_ms"], rep.Jobs.TailPct, rep.Jobs.TailBeyond = tail(lat)
	m["first_shot_p50_ms"] = median(append([]float64(nil), firstLat...))
	m["first_shot_tail_ms"], rep.Jobs.FirstTailPct, rep.Jobs.FirstBeyond = tail(firstLat)
	m["cpu_ms_per_kshot"] = ms(snaps[1].cpu-snaps[0].cpu) / shots * 1000
	m["peak_rss_mb"] = peakRSSMB()
	m["setup_s"] = median(append([]float64(nil), setups...))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// inputProperties measures the workload properties later claims cite.
func inputProperties(jobs []*jobRec, spec workloadSpec, final snapshot) map[string]float64 {
	seen := map[string]bool{}
	repeats, sites, events := 0, 0, 0
	for _, r := range jobs {
		k := calibKey(r.req)
		if seen[k] {
			repeats++
		}
		seen[k] = true
		sites += r.sites
		events += r.events
	}
	shards := 1.0
	if spec.Fleet {
		entry := final.prom[0]
		shards = sumDelta(promSnapshot{}, entry, "artery_cluster_backend", "_shards_total") / entry.values["artery_server_jobs_completed_total"]
	}
	return map[string]float64{
		"artery.calib_key_repeat_frac": float64(repeats) / float64(len(jobs)),
		"core.readouts_per_shot":       float64(sites) / float64(max(events, 1)),
		"cluster.shards_per_job":       shards,
	}
}

// makeDigest hashes the result bytes of the first n jobs and folds their
// ARTERY events into the simulated feedback latency and accuracy.
func makeDigest(jobs []*jobRec, n int) digest {
	h := sha256.New()
	var lat float64
	var shots, correct, commits int
	for _, r := range jobs[:min(n, len(jobs))] {
		if r.err != nil {
			fmt.Fprintf(h, "job %d failed\n", r.idx)
			continue
		}
		h.Write(r.result)
		h.Write([]byte{'\n'})
		if controllerName(r.req) == "ARTERY" {
			lat += r.latSum
			shots += r.events
			correct += r.correct
			commits += r.commits
		}
	}
	dg := digest{Jobs: n, ResultSHA256: hex.EncodeToString(h.Sum(nil))}
	if shots > 0 {
		dg.SimFeedbackNs = lat / float64(shots)
	}
	if commits > 0 {
		dg.SimPredAccuracy = float64(correct) / float64(commits)
	}
	return dg
}

// identityCheck runs r's request through System.RunRangeStream directly
// and compares the result bytes with the service's (the bit-identity
// contract: any node or fleet reproduces the single-process run).
func identityCheck(ctx context.Context, r *jobRec) error {
	if r.err != nil {
		return fmt.Errorf("job %d failed: %w", r.idx, r.err)
	}
	wl, err := artery.WorkloadByName(r.req.Workload, r.req.Param)
	if err != nil {
		return err
	}
	sys, err := artery.New(systemOptions(r.req)...)
	if err != nil {
		return err
	}
	rep, err := sys.RunRangeStream(ctx, controllerName(r.req), wl, r.req.ShotOffset, r.req.Shots, func(artery.ShotUpdate) {})
	if err != nil {
		return err
	}
	b, err := json.Marshal(api.ResultFrom(rep))
	if err != nil {
		return err
	}
	if !bytes.Equal(b, r.result) {
		return fmt.Errorf("job %d: service result %s differs from RunRangeStream %s", r.idx, r.result, b)
	}
	return nil
}

// resubmitCheck submits r's request again and compares the result bytes.
func resubmitCheck(ctx context.Context, d *driver, r *jobRec) error {
	if r.err != nil {
		return fmt.Errorf("job %d failed: %w", r.idx, r.err)
	}
	cl, err := d.newClient()
	if err != nil {
		return err
	}
	again := &jobRec{idx: r.idx, req: r.req}
	if err := d.stream(ctx, cl, again); err != nil {
		return err
	}
	if !bytes.Equal(again.result, r.result) {
		return fmt.Errorf("job %d: resubmitted result %s differs from %s", r.idx, again.result, r.result)
	}
	return nil
}

// traceLayers takes the CPU-profile shares and replays jobs of the traced
// phase through the layer calls, filling the replay-based metrics.
func traceLayers(ctx context.Context, o options, workDir string, spec workloadSpec, d *driver, jobs []*jobRec,
	budget time.Duration, prof []byte, m map[string]float64, addCheck func(string, error)) ([]layerTime, []string, error) {
	samples, err := parseProfile(prof)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range profileShares(samples) {
		m[k] = v
	}
	log := &spanLog{t0: time.Now()}
	p := &replayer{log: log, fleet: spec.Fleet, shards: 2}
	if spec.Fleet {
		sp := log.begin(-1, "store.Open", -1)
		p.st, err = store.Open(store.Config{Dir: filepath.Join(workDir, "replay"), Fsync: store.FsyncInterval})
		log.end(sp)
		if err != nil {
			return nil, nil, err
		}
		defer p.st.Close()
	}
	// Replay jobs submitted in the traced phase, in index order, until the
	// budget is spent; a run too short to submit any there replays its
	// first finished job instead.
	var todo []*jobRec
	for _, r := range jobs {
		if r.err == nil && d.phaseOf(r.submit) == 1 {
			todo = append(todo, r)
		}
	}
	if len(todo) == 0 {
		for _, r := range jobs {
			if r.err == nil {
				todo = append(todo, r)
				break
			}
		}
	}
	if len(todo) == 0 {
		return nil, nil, fmt.Errorf("no finished job to replay")
	}
	start := time.Now()
	for _, r := range todo {
		addCheck(fmt.Sprintf("replay_job_%d", r.idx), p.replay(ctx, r))
		if time.Since(start) >= budget {
			break
		}
	}
	var news []float64
	for _, s := range log.spans {
		if s.Name == "artery.New" {
			news = append(news, float64(s.End-s.Start)/1e6)
		}
	}
	times := log.layerTimes()
	byName := map[string]layerTime{}
	for _, lt := range times {
		byName[lt.Name] = lt
	}
	total := func(name string) float64 { return byName[name].TotalMs }
	m["artery.new_ms_p50"] = median(news)
	// The engine's own time: RunRangeStream minus its per-event callbacks.
	m["core.run_ms_per_kshot"] = ratio(byName["System.RunRangeStream"].SelfMs*1000, float64(p.shots))
	m["api.encode_us_per_event"] = ratio(total("api.EventFrom+json.Marshal")*1000, float64(p.encodes))
	m["client.decode_us_per_event"] = ratio(total("json.Unmarshal+api.ValidateEvent")*1000, float64(p.decodes))
	m["api.event_bytes"] = ratio(float64(p.eventBytes), float64(p.encodes))
	m["api.merge_us_per_event"] = ratio(total("api.Merger.Add")*1000, float64(p.merges))

	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	files := []string{base + ".spans.jsonl", base + ".cpu.pprof"}
	if err := log.write(files[0]); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(files[1], prof, 0o644); err != nil {
		return nil, nil, err
	}
	return times, files, nil
}

// layerDeltas fills the metrics taken from the client's timings and the
// nodes' /metrics over the traced phase [b, a].
func layerDeltas(b, a snapshot, jobs []*jobRec, d *driver, m map[string]float64) {
	var submit, gap []float64
	var streamMs float64
	streamShots := 0
	shots, _ := work(jobs, 1, d.phases)
	for _, r := range jobs {
		if r.err != nil {
			continue
		}
		if d.phaseOf(r.submit) == 1 {
			submit = append(submit, ms(r.accepted.Sub(r.submit)))
		}
		if d.phaseOf(r.first) == 1 {
			gap = append(gap, ms(r.first.Sub(r.accepted)))
		}
		if d.phaseOf(r.done) == 1 {
			streamMs += ms(r.done.Sub(r.first))
			streamShots += r.events
		}
	}
	m["server.submit_ms_p50"] = median(submit)
	m["server.first_shot_gap_ms_p50"] = median(gap)
	m["server.stream_ms_per_kshot"] = ratio(streamMs*1000, float64(streamShots))
	m["server.admission_429"] = float64(d.rejects429[1])
	m["client.retries"] = float64(d.retries[1])
	m["runtime.alloc_mb_per_kshot"] = ratio(float64(a.totalAlloc-b.totalAlloc)/1e6*1000, shots)

	entryB, entryA := b.prom[0], a.prom[0]
	// Nodes that execute jobs call artery.New once per accepted job: the
	// single node itself, or every backend of a fleet.
	jobsIn := delta(entryB, entryA, "artery_server_jobs_submitted_total")
	calls := jobsIn
	if len(a.prom) > 1 {
		calls = 0
		for i := 1; i < len(a.prom); i++ {
			calls += delta(b.prom[i], a.prom[i], "artery_server_jobs_submitted_total")
		}
	}
	m["artery.new_calls_per_job"] = ratio(calls, jobsIn)

	completed := delta(entryB, entryA, "artery_server_jobs_completed_total")
	shardsDone := sumDelta(entryB, entryA, "artery_cluster_backend", "_shards_total")
	hedges := delta(entryB, entryA, "artery_cluster_hedges_total")
	m["store.append_us_p50"] = histQuantile(entryB, entryA, "artery_store_append_seconds", 0.5) * 1e6
	m["store.records_per_shot"] = ratio(delta(entryB, entryA, "artery_store_records_appended_total"), delta(entryB, entryA, "artery_cluster_shots_merged_total"))
	m["store.fsyncs_per_job"] = ratio(delta(entryB, entryA, "artery_store_fsyncs_total"), completed)
	m["cluster.shard_ms_p50"] = histQuantile(entryB, entryA, "artery_cluster_shard_seconds", 0.5) * 1000
	m["cluster.dispatches_per_shard"] = ratio(delta(entryB, entryA, "artery_cluster_shards_dispatched_total"), shardsDone)
	m["cluster.hedges"] = hedges
	m["cluster.hedge_win_frac"] = ratio(delta(entryB, entryA, "artery_cluster_hedge_wins_total"), hedges)
	m["cluster.failovers"] = delta(entryB, entryA, "artery_cluster_shards_failed_over_total")
	m["cluster.breaker_trips"] = delta(entryB, entryA, "artery_cluster_breaker_trips_total")
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources, so a report identifies the
// code it measured even where no VCS revision is available.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
