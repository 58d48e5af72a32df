package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/serve"
	"dtt/internal/workloads"
)

// servingKind selects a serving workload.
type servingKind int

const (
	// webcache: each request writes 16 changed words over TSTORE_BATCH,
	// Waits, and applies the 16 CHANGE_NOTIFYs to the client's view.
	webcache servingKind = iota
	// leaderboard: each request folds 16 scores into high watermarks
	// (UpdMax) and low watermarks (UpdMin) over two TUPDATEs, Waits, and
	// applies the few notifies the record-breaking scores produce.
	leaderboard
)

func (k servingKind) String() string {
	if k == webcache {
		return "webcache"
	}
	return "leaderboard"
}

// reconcileTol is how far the sum of the client's per-call medians may be
// from the request median, as a share of it, before the traced run's
// layer reconciliation fails.
const reconcileTol = 0.15

// servingPlan sizes one serving run.
type servingPlan struct {
	kind    servingKind
	seed    uint64
	seconds float64
	trace   bool
	// clients closed-loop clients, each one goroutine with one session.
	clients int
	// keys is the key space; batch the words per request.
	keys, batch int
	// perRound requests per client make one round, the unit every
	// target plays and job_s times.
	perRound int
	// warmup rounds run during each set-up; setups is how many times
	// set-up repeats in an end-to-end run (setup_s is their median).
	warmup, setups int
	// rounds, when > 0, fixes the measured round count instead of
	// seconds (tests).
	rounds int
}

func defaultServingPlan(kind servingKind, c runConfig) servingPlan {
	p := servingPlan{
		kind: kind, seed: c.seed, seconds: c.seconds, trace: c.trace,
		clients: 2, keys: 256, batch: 16, perRound: 500, warmup: 2, setups: 5,
	}
	if c.trace {
		p.setups = 1
	}
	return p
}

// words is the size of a client's view region.
func (p servingPlan) words() int {
	if p.kind == leaderboard {
		return 2 * p.keys
	}
	return p.keys
}

// request is one generated client request.
type request struct {
	lo   int
	vals []mem.Word
}

// newStreams allocates one round's request buffers per client.
func newStreams(p servingPlan) [][]request {
	out := make([][]request, p.clients)
	for c := range out {
		flat := make([]mem.Word, p.perRound*p.batch)
		out[c] = make([]request, p.perRound)
		for i := range out[c] {
			out[c][i].vals = flat[i*p.batch : (i+1)*p.batch]
		}
	}
	return out
}

// genRound fills streams with round's requests. Each client's stream is a
// function of (seed, client, round) alone, so every target replays the
// same requests and ends in the same state.
func genRound(p servingPlan, round int, streams [][]request) {
	for c, reqs := range streams {
		rng := workloads.NewRNG(p.seed*0x100000001b3 ^ uint64(c+1)<<48 ^ uint64(round+1))
		for i := range reqs {
			rq := &reqs[i]
			rq.lo = rng.Intn(p.keys - p.batch + 1)
			k := uint64(round*p.perRound + i)
			for j := range rq.vals {
				if p.kind == webcache {
					// A value unique to (request, word): every store
					// changes its word, so every word notifies.
					rq.vals[j] = (k+1)*0x9e3779b97f4a7c15 + uint64(rq.lo+j)
				} else {
					rq.vals[j] = rng.Uint64()
				}
			}
		}
	}
}

// client is one closed-loop client: a session with a subscribed handle
// whose view it keeps from notifies, and an unsubscribed polling handle
// whose view it re-reads after every request (the recompute-everything
// baseline).
type client struct {
	s        *serve.Session
	h, hp    uint32
	view     []mem.Word
	poll     []mem.Word
	gaps     int64
	notifies int64
	lat      samples
	// Per-call samples, recorded in traced rounds only.
	batchT, updT, waitT, drainT samples
}

// plane is an in-process serve.Server over BackendImmediate with its
// connected clients.
type plane struct {
	rt  *core.Runtime
	srv *serve.Server
	cls []*client
}

func newPlane(p servingPlan, telemetry bool) (*plane, error) {
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 2, Telemetry: telemetry})
	if err != nil {
		return nil, err
	}
	pl := &plane{rt: rt, srv: serve.NewServer(rt, serve.Options{})}
	addr, err := pl.srv.Start("127.0.0.1:0")
	if err != nil {
		pl.close()
		return nil, err
	}
	w := p.words()
	for c := 0; c < p.clients; c++ {
		s, err := serve.Dial(addr)
		if err != nil {
			pl.close()
			return nil, err
		}
		cl := &client{s: s, view: make([]mem.Word, w), poll: make([]mem.Word, w), lat: newSamples()}
		if telemetry {
			cl.batchT, cl.updT, cl.waitT, cl.drainT = newSamples(), newSamples(), newSamples(), newSamples()
		}
		pl.cls = append(pl.cls, cl)
		if err := cl.attach(p); err != nil {
			pl.close()
			return nil, err
		}
	}
	return pl, nil
}

// attach arms the client's two handles. The polling region has one extra
// word that holds its (never firing) attachment, so the words the client
// writes are plain stores there.
func (cl *client) attach(p servingPlan) error {
	w := p.words()
	var err error
	if cl.h, err = cl.s.Attach("view", w, 0, w); err != nil {
		return err
	}
	if cl.hp, err = cl.s.Attach("poll", w+1, w, w+1); err != nil {
		return err
	}
	if p.kind == leaderboard {
		// Seeded before subscribing, so seeding is not board traffic.
		top := lowWatermarks(p.keys)
		for _, h := range []uint32{cl.h, cl.hp} {
			if _, err := cl.s.Batch(h, p.keys, top); err != nil {
				return err
			}
			if err := cl.s.Wait(h); err != nil {
				return err
			}
		}
		copy(cl.view[p.keys:], top)
		copy(cl.poll[p.keys:], top)
	}
	return cl.s.Subscribe(cl.h)
}

// lowWatermarks is the initial low half of a leaderboard view: MaxUint64,
// so the first score folded by UpdMin lands.
func lowWatermarks(keys int) []mem.Word {
	top := make([]mem.Word, keys)
	for i := range top {
		top[i] = math.MaxUint64
	}
	return top
}

func (pl *plane) close() {
	for _, cl := range pl.cls {
		cl.s.Close()
	}
	pl.srv.Close()
	pl.rt.Close()
}

// play runs one round on every client concurrently, each client sending
// its next request only once the previous one completed, and returns the
// round's wall time.
func (pl *plane) play(p servingPlan, streams [][]request, poll, traced bool) (time.Duration, error) {
	errs := make([]error, len(pl.cls))
	var wg sync.WaitGroup
	t := time.Now()
	for c, cl := range pl.cls {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			if poll {
				errs[c] = cl.pollRound(p, streams[c])
			} else {
				errs[c] = cl.round(p, streams[c], traced)
			}
		}(c, cl)
	}
	wg.Wait()
	return time.Since(t), errors.Join(errs...)
}

// send sends one request's writes: a TSTORE_BATCH, or the UpdMax and
// UpdMin TUPDATEs.
func (cl *client) send(p servingPlan, h uint32, rq request, traced bool) error {
	if p.kind == webcache {
		t := time.Now()
		_, err := cl.s.Batch(h, rq.lo, rq.vals)
		if traced {
			cl.batchT = append(cl.batchT, int64(time.Since(t)))
		}
		return err
	}
	for _, u := range []struct {
		lo int
		op mem.UpdateOp
	}{{rq.lo, mem.UpdMax}, {p.keys + rq.lo, mem.UpdMin}} {
		t := time.Now()
		_, err := cl.s.Update(h, u.lo, u.op, rq.vals)
		if traced {
			cl.updT = append(cl.updT, int64(time.Since(t)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// round plays reqs on the subscribed handle: write, Wait, then apply the
// notifies to the view — re-reading the view when the in-band gap count
// says notifies were shed. Latency runs from the first write until the
// view is up to date.
func (cl *client) round(p servingPlan, reqs []request, traced bool) error {
	for _, rq := range reqs {
		t0 := time.Now()
		if err := cl.send(p, cl.h, rq, traced); err != nil {
			return err
		}
		t1 := time.Now()
		if err := cl.s.Wait(cl.h); err != nil {
			return err
		}
		t2 := time.Now()
		if err := cl.drain(p); err != nil {
			return err
		}
		t3 := time.Now()
		cl.lat = append(cl.lat, int64(t3.Sub(t0)))
		if traced {
			cl.waitT = append(cl.waitT, int64(t2.Sub(t1)))
			cl.drainT = append(cl.drainT, int64(t3.Sub(t2)))
		}
	}
	return nil
}

// drain applies the buffered notifies to the view, re-reading the whole
// view when the in-band gap count says some were shed.
func (cl *client) drain(p servingPlan) error {
	for _, n := range cl.s.Notifies() {
		cl.view[n.Index] = n.Value
		cl.notifies++
	}
	if g := cl.s.TakeGap(); g > 0 {
		cl.gaps += int64(g)
		ws, err := cl.s.Read(cl.h, 0, p.words())
		if err != nil {
			return err
		}
		copy(cl.view, ws)
	}
	return nil
}

// pollRound plays reqs on the polling handle: the same writes and Wait,
// then a READ of the whole view in place of the notify stream.
func (cl *client) pollRound(p servingPlan, reqs []request) error {
	for _, rq := range reqs {
		if err := cl.send(p, cl.hp, rq, false); err != nil {
			return err
		}
		if err := cl.s.Wait(cl.hp); err != nil {
			return err
		}
		ws, err := cl.s.Read(cl.hp, 0, p.words())
		if err != nil {
			return err
		}
		copy(cl.poll, ws)
	}
	return nil
}

// finish quiesces every client and checks its views against a final READ.
// It returns each client's authoritative subscribed-view words.
func (pl *plane) finish(p servingPlan, polled bool, rep *report) ([][]mem.Word, error) {
	truths := make([][]mem.Word, len(pl.cls))
	for c, cl := range pl.cls {
		if err := cl.s.Barrier(); err != nil {
			return nil, err
		}
		if err := cl.drain(p); err != nil {
			return nil, err
		}
		truth, err := cl.s.Read(cl.h, 0, p.words())
		if err != nil {
			return nil, err
		}
		rep.check(stale(cl.view, truth) == 0, "%s client %d: %d stale words in the notify-fed view", p.kind, c, stale(cl.view, truth))
		truths[c] = truth
		if polled {
			pt, err := cl.s.Read(cl.hp, 0, p.words())
			if err != nil {
				return nil, err
			}
			rep.check(stale(cl.poll, pt) == 0, "%s client %d: %d stale words in the polled view", p.kind, c, stale(cl.poll, pt))
			rep.check(stale(pt, truth) == 0, "%s client %d: polled and subscribed regions differ in %d words", p.kind, c, stale(pt, truth))
		}
	}
	sc, st := pl.srv.Counters(), pl.rt.Stats()
	var gaps, notifies int64
	for _, cl := range pl.cls {
		gaps += cl.gaps
		notifies += cl.notifies
	}
	rep.check(st.Fired == st.Enqueued+st.Squashed+st.Overflowed,
		"%s: Fired %d != Enqueued %d + Squashed %d + Overflowed %d", p.kind, st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
	rep.check(gaps == sc.NotifyDropped, "%s: clients saw %d in-band gaps, server shed %d", p.kind, gaps, sc.NotifyDropped)
	rep.check(notifies == sc.Notifies, "%s: clients received %d notifies, server queued %d", p.kind, notifies, sc.Notifies)
	rep.check(sc.Errors == 0, "%s: server sent %d ERROR replies", p.kind, sc.Errors)
	return truths, nil
}

func stale(view, truth []mem.Word) int {
	n := 0
	for i := range truth {
		if view[i] != truth[i] {
			n++
		}
	}
	return n
}

// replayClient is one client's request stream replayed in process against
// core.Namespace, without the serve plane.
type replayClient struct {
	ns   *core.Namespace
	r    *core.Region
	t    core.ThreadID
	view []mem.Word
}

// replay is the in-process target: the same seeded streams, one
// namespace per client, played sequentially on one goroutine.
type replay struct {
	rt                  *core.Runtime
	cls                 []*replayClient
	batchT, updT, waitT samples
}

func newReplay(p servingPlan, cfg core.Config, traced bool) (*replay, error) {
	rt, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rp := &replay{rt: rt}
	if traced {
		rp.batchT, rp.updT, rp.waitT = newSamples(), newSamples(), newSamples()
	}
	w := p.words()
	for c := 0; c < p.clients; c++ {
		rc := &replayClient{ns: rt.NewNamespace(fmt.Sprintf("c%d", c)), view: make([]mem.Word, w)}
		rp.cls = append(rp.cls, rc)
		if rc.r, err = rc.ns.Region("view", w); err == nil {
			rc.t, err = rc.ns.Register("view", func(tg core.Trigger) { rc.view[tg.Index] = tg.Region.Load(tg.Index) })
		}
		if err == nil {
			err = rc.ns.Attach(rc.t, rc.r, 0, w)
		}
		if err == nil && p.kind == leaderboard {
			rc.r.TStoreBatch(p.keys, lowWatermarks(p.keys))
			err = rc.ns.Wait(rc.t)
		}
		if err != nil {
			rt.Close()
			return nil, err
		}
	}
	return rp, nil
}

// play replays one round and returns its wall time; traced records the
// time of every core call.
func (rp *replay) play(p servingPlan, streams [][]request, traced bool) (time.Duration, error) {
	t := time.Now()
	for c, rc := range rp.cls {
		for _, rq := range streams[c] {
			t0 := time.Now()
			if p.kind == webcache {
				rc.r.TStoreBatch(rq.lo, rq.vals)
				if traced {
					rp.batchT = append(rp.batchT, int64(time.Since(t0)))
				}
			} else {
				rc.r.TUpdateBatch(rq.lo, mem.UpdMax, rq.vals)
				t1 := time.Now()
				rc.r.TUpdateBatch(p.keys+rq.lo, mem.UpdMin, rq.vals)
				if traced {
					rp.updT = append(rp.updT, int64(t1.Sub(t0)), int64(time.Since(t1)))
				}
			}
			t2 := time.Now()
			if err := rc.ns.Wait(rc.t); err != nil {
				return 0, err
			}
			if traced {
				rp.waitT = append(rp.waitT, int64(time.Since(t2)))
			}
		}
	}
	return time.Since(t), nil
}

// finish checks each replayed view against its region and returns the
// regions' words.
func (rp *replay) finish(p servingPlan, rep *report) ([][]mem.Word, error) {
	truths := make([][]mem.Word, len(rp.cls))
	for c, rc := range rp.cls {
		if err := rc.ns.Barrier(); err != nil {
			return nil, err
		}
		truth := make([]mem.Word, p.words())
		for i := range truth {
			truth[i] = rc.r.Load(i)
		}
		rep.check(stale(rc.view, truth) == 0, "%s replay client %d: %d stale words", p.kind, c, stale(rc.view, truth))
		truths[c] = truth
	}
	s := rp.rt.Stats()
	rep.check(s.Fired == s.Enqueued+s.Squashed+s.Overflowed,
		"%s replay: Fired %d != Enqueued %d + Squashed %d + Overflowed %d", p.kind, s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	return truths, nil
}

// servingEnv is everything one serving run plays rounds on. An untraced
// run has one plane (played subscribed, then polling) and an inline-model
// replay; a traced run has an untraced plane, a traced plane with runtime
// telemetry on, and an immediate-backend replay timed call by call.
type servingEnv struct {
	main, traced *plane
	rp           *replay
}

func (e *servingEnv) close() {
	for _, pl := range []*plane{e.main, e.traced} {
		if pl != nil {
			pl.close()
		}
	}
	if e.rp != nil {
		e.rp.rt.Close()
	}
}

// setupServing builds a servingEnv and plays the warm-up rounds on it:
// server start, dials, attach/subscribe, leaderboard seeding and warm-up
// are all set-up.
func setupServing(p servingPlan, streams [][]request) (*servingEnv, error) {
	e := &servingEnv{}
	var err error
	if e.main, err = newPlane(p, false); err != nil {
		return nil, err
	}
	rcfg := core.Config{Backend: core.BackendDeferred}
	if p.trace {
		if e.traced, err = newPlane(p, true); err != nil {
			e.close()
			return nil, err
		}
		rcfg = core.Config{Backend: core.BackendImmediate, Workers: 2}
	}
	if e.rp, err = newReplay(p, rcfg, p.trace); err != nil {
		e.close()
		return nil, err
	}
	for r := 0; r < p.warmup; r++ {
		genRound(p, r, streams)
		if _, err := e.playRound(p, streams, nil); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// roundTimes is one measured round's wall time on each target.
type roundTimes struct{ main, poll, traced, replay time.Duration }

// playRound plays streams on every target of e. When tr is non-nil the
// traced plane's round is timed call by call and the process's CPU and
// allocation counts around it are added to tr.
func (e *servingEnv) playRound(p servingPlan, streams [][]request, tr *procTrace) (roundTimes, error) {
	var rt roundTimes
	var err error
	if rt.main, err = e.main.play(p, streams, false, false); err != nil {
		return rt, err
	}
	if e.traced == nil {
		if rt.poll, err = e.main.play(p, streams, true, false); err != nil {
			return rt, err
		}
	} else {
		var cpu0 cpuTimes
		var proc0 procCounters
		if tr != nil {
			cpu0, proc0 = readCPU(), readProc()
		}
		if rt.traced, err = e.traced.play(p, streams, false, tr != nil); err != nil {
			return rt, err
		}
		if tr != nil {
			tr.cpu = tr.cpu.add(readCPU().sub(cpu0))
			tr.proc = tr.proc.add(readProc().sub(proc0))
		}
	}
	rt.replay, err = e.rp.play(p, streams, tr != nil)
	return rt, err
}

// runServing sets up, measures rounds for the plan's duration, checks
// every target's final state and reports.
func runServing(p servingPlan, rep *report) error {
	host0 := readHostTicks()
	streams := newStreams(p)
	var setups []float64
	var e *servingEnv
	for i := 0; i < p.setups; i++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		if e, err = setupServing(p, streams); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer e.close()
	rep.ops(p.warmup * p.clients * p.perRound * 3)

	for _, pl := range []*plane{e.main, e.traced} {
		if pl != nil {
			for _, cl := range pl.cls {
				cl.lat = cl.lat[:0]
			}
		}
	}
	var before, after planeCounters
	if e.traced != nil {
		before = readPlane(e.traced)
	}
	var (
		mainT, pollT, tracedT, replayT []float64
		roundP99                       []float64
		roundLat                       samples
		tr                             procTrace
		t0                             = time.Now()
	)
	for r := p.warmup; ; r++ {
		if p.rounds > 0 && r-p.warmup >= p.rounds {
			break
		}
		if p.rounds == 0 && time.Since(t0).Seconds() >= p.seconds {
			break
		}
		genRound(p, r, streams)
		var trp *procTrace
		if p.trace {
			trp = &tr
		}
		times, err := e.playRound(p, streams, trp)
		rep.ops(3 * p.clients * p.perRound)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		mainT = append(mainT, times.main.Seconds())
		roundLat = roundLat[:0]
		for _, cl := range e.main.cls {
			roundLat = append(roundLat, cl.lat[len(cl.lat)-p.perRound:]...)
		}
		p99, ok := roundLat.quantile(0.99)
		rep.check(ok, "%s round %d: %d requests leave fewer than %d above the p99", p.kind, r, len(roundLat), minBeyond)
		roundP99 = append(roundP99, p99/1e3)
		pollT = append(pollT, times.poll.Seconds())
		tracedT = append(tracedT, times.traced.Seconds())
		replayT = append(replayT, times.replay.Seconds())
	}
	rounds := len(mainT)
	reqs := float64(rounds * p.clients * p.perRound)
	memMB := peakRSSMB()
	if e.traced != nil {
		after = readPlane(e.traced)
	}

	truths, err := e.main.finish(p, e.traced == nil, rep)
	if err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	replayed, err := e.rp.finish(p, rep)
	if err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	others := [][][]mem.Word{replayed}
	if e.traced != nil {
		traced, err := e.traced.finish(p, false, rep)
		if err != nil {
			return fmt.Errorf("final check: %w", err)
		}
		others = append(others, traced)
	}
	for _, ts := range others {
		for c := range ts {
			rep.check(stale(ts[c], truths[c]) == 0, "%s client %d: targets disagree in %d words", p.kind, c, stale(ts[c], truths[c]))
		}
	}

	var lat samples
	for _, cl := range e.main.cls {
		lat = append(lat, cl.lat...)
	}
	rps := ratio(reqs, sum(mainT))
	rep.counts["rounds"] = rounds
	if !p.trace {
		rep.set("setup_s", median(setups), "s")
		rep.set("mem_mb", memMB, "MB")
		rep.set("job_s", median(mainT), "s")
		rep.set("inline_job_s", median(replayT), "s")
		rep.set("speedup", ratio(median(pollT), median(mainT)), "x")
		rep.set("rps", rps, "1/s")
		rep.quantileUS("p50_us", lat, 0.50)
		// The median over rounds of each round's exact p99: a burst of
		// host steal inflates the few rounds it hits instead of the
		// whole run's tail.
		rep.set("p99_us", median(roundP99), "us")
		rep.counts["p99_us"] = len(lat)
		return nil
	}

	rep.set("trace.overhead_frac", ratio(rps, ratio(reqs, sum(tracedT)))-1, "frac")
	reportLayers(rep, before, after, tr, reqs, float64(rounds))
	var tl, batchT, updT, waitT, drainT samples
	for _, cl := range e.traced.cls {
		tl = append(tl, cl.lat...)
		batchT = append(batchT, cl.batchT...)
		updT = append(updT, cl.updT...)
		waitT = append(waitT, cl.waitT...)
		drainT = append(drainT, cl.drainT...)
	}
	p50, _ := tl.us(0.5)
	var parts float64
	if p.kind == webcache {
		rep.quantileUS("client.batch_us.p50", batchT, 0.50)
		rep.quantileUS("client.batch_us.p99", batchT, 0.99)
		rep.quantileUS("core.batch_us.p50", e.rp.batchT, 0.50)
		parts = rep.metrics["client.batch_us.p50"].Value
	} else {
		rep.quantileUS("client.update_us.p50", updT, 0.50)
		rep.quantileUS("client.update_us.p99", updT, 0.99)
		rep.quantileUS("core.update_us.p50", e.rp.updT, 0.50)
		parts = 2 * rep.metrics["client.update_us.p50"].Value
	}
	rep.quantileUS("client.wait_us.p50", waitT, 0.50)
	rep.quantileUS("client.wait_us.p99", waitT, 0.99)
	rep.quantileUS("client.drain_us.p50", drainT, 0.50)
	rep.quantileUS("core.wait_us.p50", e.rp.waitT, 0.50)
	parts += rep.metrics["client.wait_us.p50"].Value + rep.metrics["client.drain_us.p50"].Value
	rep.set("client.unattributed_us.p50", p50-parts, "us")
	rec := ratio(p50-parts, p50)
	rep.set("trace.reconcile_frac", rec, "frac")
	rep.check(math.Abs(rec) <= reconcileTol, "%s: client per-call medians sum to %.1fus against a request median of %.1fus (more than %.0f%% apart)",
		p.kind, parts, p50, 100*reconcileTol)
	rep.set("host.steal_frac", stealFrac(host0, readHostTicks()), "frac")
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// planeCounters is every counter a plane exports, read at once. The
// traced plane serves only traced rounds after set-up, so the difference
// of two reads bracketing the measurement is the traced rounds' total.
type planeCounters struct {
	srv                        serve.Counters
	st                         core.Stats
	dispatch, run, merge, note histSum
}

func readPlane(pl *plane) planeCounters {
	c := planeCounters{srv: pl.srv.Counters(), st: pl.rt.Stats()}
	hs := pl.srv.TelemetrySnapshot().Histograms
	c.dispatch.add(hs, dispatchHist)
	c.run.add(hs, runHist)
	c.merge.add(hs, mergeHist)
	c.note.add(hs, notifyHist)
	return c
}

// procTrace is the process's CPU and allocation counts over traced rounds.
type procTrace struct {
	cpu  cpuTimes
	proc procCounters
}

// reportLayers reports the traced plane's counters between a and b, per
// request.
func reportLayers(rep *report, a, b planeCounters, pt procTrace, reqs, rounds float64) {
	per := func(x, y int64) float64 { return ratio(float64(y-x), reqs) }
	frac := func(n0, n1, d0, d1 int64) float64 { return ratio(float64(n1-n0), float64(d1-d0)) }
	mean := func(x, y histSum) float64 { return y.sub(x).meanUS() }
	rep.set("serve.frames_out_per_req", per(a.srv.FramesOut, b.srv.FramesOut), "count")
	rep.set("serve.bytes_out_per_req", per(a.srv.BytesOut, b.srv.BytesOut), "count")
	rep.set("serve.notifies_per_req", per(a.srv.Notifies, b.srv.Notifies), "count")
	rep.set("serve.notify_us_mean", mean(a.note, b.note), "us")
	rep.set("serve.notify_dropped", float64(b.srv.NotifyDropped-a.srv.NotifyDropped), "count")
	rep.set("serve.errors", float64(b.srv.Errors-a.srv.Errors), "count")
	rep.set("core.silent_frac", frac(a.st.Silent, b.st.Silent, a.st.TStores, b.st.TStores), "frac")
	rep.set("update.silent_frac", frac(a.st.SilentMerges, b.st.SilentMerges, a.st.MergedUpdates, b.st.MergedUpdates), "frac")
	rep.set("update.merge_us_mean", mean(a.merge, b.merge), "us")
	rep.set("queue.squash_frac", frac(a.st.Squashed, b.st.Squashed, a.st.Fired, b.st.Fired), "frac")
	rep.set("queue.overflow_frac", frac(a.st.Overflowed, b.st.Overflowed, a.st.Fired, b.st.Fired), "frac")
	rep.set("dispatch.wait_us_mean", mean(a.dispatch, b.dispatch), "us")
	rep.set("support.busy_s", ratio(float64(b.run.sum-a.run.sum)/1e9, rounds), "s")
	rep.set("support.busy_us_per_req", per(a.run.sum, b.run.sum)/1e3, "us")
	rep.set("proc.cpu_s", ratio(pt.cpu.total().Seconds(), rounds), "s")
	rep.set("proc.cpu_us_per_req", ratio(float64(pt.cpu.total().Microseconds()), reqs), "us")
	rep.set("proc.sys_frac", ratio(float64(pt.cpu.sys), float64(pt.cpu.total())), "frac")
	rep.set("proc.allocs_per_req", ratio(float64(pt.proc.mallocs), reqs), "count")
	rep.set("gc.pause_ms", ratio(float64(pt.proc.pauseNs)/1e6, rounds), "ms")
}
