package main

import (
	"fmt"

	"artery"
	"artery/api"
)

// workloadSpec is one traffic mix. Every request the service receives is
// generated from (spec, seed, job index), so a seed fixes the whole run.
type workloadSpec struct {
	Name string
	Why  string
	// Fleet deploys a coordinator with a durable journal over two
	// in-process backends instead of one in-memory node.
	Fleet bool
	// DigestJobs is the job-index prefix every run completes, even past
	// the deadline: the result digest and the sim_* metrics cover exactly
	// these jobs, so two runs with one seed reproduce them.
	DigestJobs int
	job        func(seed uint64, i int) api.Request
}

// sizes sets the job sizes of every workload; toySizes shrinks them and
// the digest prefix for the self-test (digestJobs 0 keeps each
// workload's own prefix).
type sizes struct {
	sweepShots, surfaceShots, surfaceD, fleetShots, digestJobs int
}

var (
	fullSizes = sizes{sweepShots: 200, surfaceShots: 16, surfaceD: 11, fleetShots: 400}
	toySizes  = sizes{sweepShots: 8, surfaceShots: 2, surfaceD: 5, fleetShots: 16, digestJobs: 2}
)

// sweepFamilies are the paper's benchmark families with the sizes of its
// prediction and ablation tables.
var sweepFamilies = []struct {
	name  string
	param int
}{{"qrw", 5}, {"rcnot", 3}, {"dqt", 3}, {"rusqnn", 3}}

// sweepSeeds is how many calibration seeds sweep-small draws from: a small
// set fixed by the workload seed, the way the experiment suite reuses one
// seed per table.
const sweepSeeds = 4

func workloads(sz sizes) []workloadSpec {
	digest := func(n int) int {
		if sz.digestJobs > 0 {
			return sz.digestJobs
		}
		return n
	}
	ctrls := artery.ControllerNames()
	combos := len(sweepFamilies) * len(ctrls)
	return []workloadSpec{
		{
			Name:       "sweep-small",
			Why:        "small jobs over qrw/rcnot/dqt/rusqnn x 5 controllers, 4 reused seeds, one node: per-job calibration dominates and its keys repeat, so calibration work shows here",
			DigestJobs: digest(2 * combos),
			job: func(seed uint64, i int) api.Request {
				// Each cycle of `combos` jobs visits every (family,
				// controller) pair once, in a seed-shuffled order.
				cycle, pos := i/combos, i%combos
				perm := permutation(mix(seed, uint64(cycle), 1), combos)
				c := perm[pos]
				fam, ctrl := sweepFamilies[c/len(ctrls)], ctrls[c%len(ctrls)]
				return api.Request{
					Workload:   fam.name,
					Param:      fam.param,
					Controller: ctrl,
					Shots:      sz.sweepShots,
					Seed:       1 + mix(seed, mix(seed, uint64(i), 2)%sweepSeeds, 3)%(1<<48),
				}
			},
		},
		{
			Name:       "surface-tableau",
			Why:        "surface-code d=11 memory jobs on the stabilizer backend, distinct seeds: the only traffic reaching the tableau (240 readouts per shot), engine-heavy with no calibration key repeats",
			DigestJobs: digest(8),
			job: func(seed uint64, i int) api.Request {
				return api.Request{
					Workload: "surface", Param: sz.surfaceD, Controller: "ARTERY", Shots: sz.surfaceShots, Seed: distinctSeed(seed, i),
					Options: &api.RequestOptions{Backend: "stabilizer"},
				}
			},
		},
		{
			Name:       "fleet-durable",
			Why:        "ARTERY QRW jobs through a journaled coordinator over two backends: the only traffic that reaches cluster scatter/merge, hedging and the WAL store",
			Fleet:      true,
			DigestJobs: digest(8),
			job: func(seed uint64, i int) api.Request {
				return api.Request{Workload: "qrw", Param: 5, Controller: "ARTERY", Shots: sz.fleetShots, Seed: distinctSeed(seed, i)}
			},
		},
	}
}

func workloadByName(sz sizes, name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads(sz) {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// calibKey is what the facade's calibration depends on: the seed and the
// readout settings (artery.New → readout.NewChannel).
func calibKey(req api.Request) string {
	var win float64
	var depth int
	if o := req.Options; o != nil {
		win, depth = o.WindowNs, o.HistoryDepth
	}
	return fmt.Sprintf("%d/%v/%d", req.Seed, win, depth)
}

// distinctSeed gives job i of a run its own nonzero engine seed.
func distinctSeed(seed uint64, i int) uint64 {
	return 1 + mix(seed, uint64(i), 4)%(1<<48)
}

// mix is a splitmix64-style hash of (a, b, salt).
func mix(a, b, salt uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + salt*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// permutation is a Fisher-Yates shuffle of [0, n) driven by mix.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i), 5) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
