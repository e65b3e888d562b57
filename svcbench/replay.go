package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"artery"
	"artery/api"
	"artery/internal/store"
)

// span is one timed call into a layer. Spans of one replayed job share
// its index; Parent is the index of the enclosing span, or -1.
type span struct {
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(job int, name string, parent int) int {
	l.spans = append(l.spans, span{Job: job, Name: name, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.t0)) }

// layerTime is the total and self time of every span of one name. Self
// time is a span's duration minus the time its children cover.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (l *spanLog) layerTimes() []layerTime {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range l.spans {
		lt, ok := byName[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(children[i])) / 1e6
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
	var total, curS, curE int64
	open := false
	for _, s := range ss {
		if open && s.Start <= curE {
			curE = max(curE, s.End)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s.Start, s.End, true
	}
	if open {
		total += curE - curS
	}
	return total
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-executes service jobs through the public layer calls the
// service makes for them, one span per call: artery.New and
// System.RunRangeStream per shard, and per event api.EventFrom+json.Marshal
// (encode), json.Unmarshal+api.ValidateEvent (decode) and, on a fleet,
// api.Merger.Add and store.ShotEvent between the backend hop (with stage
// deltas) and the client hop.
type replayer struct {
	log    *spanLog
	fleet  bool
	shards int
	st     *store.Store // fleet only: a scratch journal

	shots, encodes, decodes, merges, eventBytes int
}

// replay re-runs r and checks that the replayed result bytes equal the
// service's.
func (p *replayer) replay(ctx context.Context, r *jobRec) error {
	l := p.log
	root := l.begin(r.idx, "job", -1)
	defer l.end(root)
	wl, err := artery.WorkloadByName(r.req.Workload, r.req.Param)
	if err != nil {
		return err
	}
	ranges := [][2]int{{r.req.ShotOffset, r.req.Shots}}
	if p.fleet {
		ranges = splitShots(r.req.ShotOffset, r.req.Shots, p.shards)
		if err := p.st.JobSubmitted(r.id, r.req); err != nil {
			return err
		}
	}
	merger := api.NewMerger(r.req)
	var res *api.Result
	var cbErr error
	for _, rg := range ranges {
		sp := l.begin(r.idx, "artery.New", root)
		sys, err := artery.New(systemOptions(r.req)...)
		l.end(sp)
		if err != nil {
			return err
		}
		sp = l.begin(r.idx, "System.RunRangeStream", root)
		rep, err := sys.RunRangeStream(ctx, controllerName(r.req), wl, rg[0], rg[1], func(u artery.ShotUpdate) {
			if cbErr != nil {
				return
			}
			ev, err := p.hop(r.idx, sp, api.EventFrom(u, p.fleet))
			if err == nil && p.fleet {
				m := l.begin(r.idx, "api.Merger.Add", sp)
				err = merger.Add(ev)
				l.end(m)
				p.merges++
				if err == nil {
					s := l.begin(r.idx, "store.ShotEvent", sp)
					err = p.st.ShotEvent(r.id, ev)
					l.end(s)
				}
				if err == nil {
					_, err = p.hop(r.idx, sp, api.TrimStages(ev, false))
				}
			}
			cbErr = err
		})
		l.end(sp)
		if err != nil {
			return err
		}
		if cbErr != nil {
			return cbErr
		}
		res = api.ResultFrom(rep)
		merger.SetNames(res)
	}
	p.shots += r.req.Shots
	if p.fleet {
		res = merger.Result(false)
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, r.result) {
		return fmt.Errorf("replay of job %d: result bytes differ from the service's", r.idx)
	}
	return nil
}

// hop encodes an event for one NDJSON hop and decodes it as the receiving
// side does.
func (p *replayer) hop(job, parent int, ev api.ShotEvent) (api.ShotEvent, error) {
	l := p.log
	e := l.begin(job, "api.EventFrom+json.Marshal", parent)
	b, err := json.Marshal(ev)
	l.end(e)
	p.encodes++
	p.eventBytes += len(b) + 1 // the newline of the NDJSON line
	if err != nil {
		return ev, err
	}
	d := l.begin(job, "json.Unmarshal+api.ValidateEvent", parent)
	var got api.ShotEvent
	err = json.Unmarshal(b, &got)
	if err == nil {
		err = api.ValidateEvent(got)
	}
	l.end(d)
	p.decodes++
	return got, err
}

// splitShots mirrors the coordinator's contiguous shard split: n ranges
// (fewer when there are fewer shots), the first shots%n one shot longer.
func splitShots(offset, shots, n int) [][2]int {
	n = max(1, min(n, shots))
	out := make([][2]int, 0, n)
	base, rem := shots/n, shots%n
	lo := offset
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, size})
		lo += size
	}
	return out
}

func controllerName(req api.Request) string {
	if req.Controller == "" {
		return "ARTERY"
	}
	return req.Controller
}

// systemOptions maps a request onto the facade options the server builds
// for it (the fields this benchmark's requests set).
func systemOptions(req api.Request) []artery.Option {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	opts := []artery.Option{artery.WithSeed(seed), artery.WithWorkers(1)}
	if o := req.Options; o != nil {
		if o.WindowNs != 0 {
			opts = append(opts, artery.WithWindowNs(o.WindowNs))
		}
		if o.HistoryDepth != 0 {
			opts = append(opts, artery.WithHistoryDepth(o.HistoryDepth))
		}
		if o.Backend != "" {
			opts = append(opts, artery.WithBackend(o.Backend))
		}
	}
	return opts
}
