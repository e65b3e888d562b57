package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"artery/api"
	"artery/client"
)

// jobRec is one closed-loop job as its client saw it.
type jobRec struct {
	idx int
	req api.Request
	id  string
	err error
	// submit: POST sent; accepted: 202 received; first: first event
	// received; done: terminal line received.
	submit, accepted, first, done time.Time
	// Folds of the streamed events, checked against the result document.
	events, sites, commits, correct int
	latSum, fidSum                  float64
	fidN                            int
	result                          []byte
}

// driver runs the closed loop: each client submits a job, streams it to
// its done-line, checks it, and submits the next.
type driver struct {
	spec   workloadSpec
	seed   uint64
	url    string
	phases []time.Time // phase i spans [phases[i], phases[i+1])

	next atomic.Int64
	mu   sync.Mutex
	jobs []*jobRec
	// retries and rejects429 count client retry-hook calls per phase.
	retries, rejects429 []int
}

func newDriver(spec workloadSpec, seed uint64, url string, phases []time.Time) *driver {
	n := len(phases) - 1
	return &driver{spec: spec, seed: seed, url: url, phases: phases, retries: make([]int, n), rejects429: make([]int, n)}
}

// phaseOf returns the phase t falls in, or -1 outside every phase.
func (d *driver) phaseOf(t time.Time) int {
	for i := 0; i+1 < len(d.phases); i++ {
		if !t.Before(d.phases[i]) && t.Before(d.phases[i+1]) {
			return i
		}
	}
	return -1
}

func (d *driver) newClient() (*client.Client, error) {
	return client.New(d.url,
		client.WithRetries(20),
		client.WithBackoff(10*time.Millisecond, time.Second),
		client.WithRetryHook(func(info client.RetryInfo) {
			d.mu.Lock()
			defer d.mu.Unlock()
			if ph := d.phaseOf(time.Now()); ph >= 0 {
				d.retries[ph]++
				if info.Status == 429 {
					d.rejects429[ph]++
				}
			}
		}))
}

// run drives `clients` closed-loop clients until the last phase ends and
// every job of the digest prefix has been taken, then waits for them.
func (d *driver) run(ctx context.Context, clients int) error {
	end := d.phases[len(d.phases)-1]
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		cl, err := d.newClient()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(d.next.Add(1) - 1)
				if i >= d.spec.DigestJobs && !time.Now().Before(end) {
					return
				}
				r := d.runJob(ctx, cl, i)
				d.mu.Lock()
				d.jobs = append(d.jobs, r)
				d.mu.Unlock()
			}
			errs[c] = ctx.Err()
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (d *driver) runJob(ctx context.Context, cl *client.Client, i int) *jobRec {
	r := &jobRec{idx: i, req: d.spec.job(d.seed, i)}
	r.submit = time.Now()
	r.err = d.stream(ctx, cl, r)
	return r
}

// stream submits r, consumes its event stream and checks every event and
// the terminal result.
func (d *driver) stream(ctx context.Context, cl *client.Client, r *jobRec) error {
	st, err := cl.Submit(ctx, r.req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	r.accepted, r.id = time.Now(), st.ID
	s, err := cl.Stream(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("stream %s: %w", st.ID, err)
	}
	defer s.Close()
	for {
		ev, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream %s: %w", st.ID, err)
		}
		if r.events == 0 {
			r.first = time.Now()
		}
		if err := api.ValidateEvent(ev); err != nil {
			return err
		}
		if want := r.req.ShotOffset + r.events; ev.Shot != want {
			return fmt.Errorf("job %s: event for shot %d, want %d", st.ID, ev.Shot, want)
		}
		r.events++
		r.sites += ev.Sites
		r.commits += ev.Commits
		r.correct += ev.Correct
		r.latSum += ev.LatencyNs
		if ev.Fidelity != nil {
			r.fidSum += *ev.Fidelity
			r.fidN++
		}
	}
	r.done = time.Now()
	end := s.End()
	if end.State != api.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, end.State, end.Error)
	}
	if err := api.ValidateResult(end.Result); err != nil {
		return err
	}
	if r.events != r.req.Shots {
		return fmt.Errorf("job %s streamed %d events, want %d", st.ID, r.events, r.req.Shots)
	}
	if err := r.checkFold(end.Result); err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	r.result, err = json.Marshal(end.Result)
	return err
}

// checkFold verifies that the result aggregates equal the fold of the
// streamed events, with the engine's own arithmetic (sum in shot order,
// then divide), so they must match bit for bit.
func (r *jobRec) checkFold(res *api.Result) error {
	if res.Shots != r.events || res.Canceled {
		return fmt.Errorf("result covers %d shots (canceled %v), streamed %d", res.Shots, res.Canceled, r.events)
	}
	lat := (r.latSum / float64(r.events)) / 1000
	acc := 1.0
	if r.commits > 0 {
		acc = float64(r.correct) / float64(r.commits)
	}
	rate := 0.0
	if r.sites > 0 {
		rate = float64(r.commits) / float64(r.sites)
	}
	if res.MeanLatencyUs != lat || res.Accuracy != acc || res.CommitRate != rate {
		return fmt.Errorf("result (latency %v, accuracy %v, commit rate %v) disagrees with its events (%v, %v, %v)",
			res.MeanLatencyUs, res.Accuracy, res.CommitRate, lat, acc, rate)
	}
	if (res.Fidelity == nil) != (r.fidN == 0) {
		return fmt.Errorf("result fidelity presence disagrees with its events")
	}
	if res.Fidelity != nil && *res.Fidelity != r.fidSum/float64(r.fidN) {
		return fmt.Errorf("result fidelity %v disagrees with its events (%v)", *res.Fidelity, r.fidSum/float64(r.fidN))
	}
	return nil
}

// share is the part of r's submit→done interval that lies in [lo, hi):
// the fraction of the job's work to credit to that window. A failed job
// is credited nothing.
func (r *jobRec) share(lo, hi time.Time) float64 {
	if r.err != nil || !r.done.After(r.submit) {
		return 0
	}
	a, b := r.submit, r.done
	if a.Before(lo) {
		a = lo
	}
	if b.After(hi) {
		b = hi
	}
	if !b.After(a) {
		return 0
	}
	return float64(b.Sub(a)) / float64(r.done.Sub(r.submit))
}

// sorted returns the finished jobs in index order. Clients take indices
// in increasing order and stop only past the deadline, so the indices run
// form a prefix.
func (d *driver) sorted() []*jobRec {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]*jobRec(nil), d.jobs...)
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}
