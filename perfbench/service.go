package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/service"
	"rff/internal/shard"
	"rff/internal/store"
	"rff/internal/telemetry"
)

// The request shape follows the rffd request README.md documents
// (tools rff and pct, five trials, budget 3000), with the budget scaled
// down to serviceBudget so a run holds hundreds of jobs. The rest of the
// traffic is a design choice; no measured rffd traffic exists to take
// it from. README.md in this directory gives the reasons for each value.

// servicePrograms are the programs fresh requests fuzz, in turn. The
// documented request's CS/account comes first; the others add bugs the
// tools find at different depths, and Chan/prodcons has none, so its
// jobs run their whole budget. Each program's jobs take a latency of
// their own, from about 13 ms (RADBench/bug4) to 400 ms
// (Chan/prodcons). The count is odd so that the median fresh job falls
// inside one program's cluster: with six programs it fell in the gap
// between the third and the fourth, and op_p50_ms jumped between them
// from seed to seed.
var servicePrograms = []string{
	"CS/account",
	"CS/reorder_5",
	"Chess/WorkStealQueue",
	"RADBench/bug4",
	"Chan/prodcons",
}

// serviceTools and serviceTrials are the documented request's.
var serviceTools = []string{"rff", "pct"}

const serviceTrials = 5

// The batch mix: of serviceBatch requests, serviceCached repeat
// completed requests of the previous batch (cache hits) and the last
// fresh one is sharded across nproc shards.
const (
	serviceBatch  = 8
	serviceCached = 2
)

// serviceEpoch is how many batches one daemon serves before the loop
// replaces it with a fresh one on an empty store. Rffd keeps every job
// in memory and rewrites its whole index whenever a job completes, so
// on one daemon later jobs would cost more the more jobs came before,
// and latency and heap would grow with throughput. The first epoch
// always runs in full; bugs_found counts it.
func serviceEpoch(small bool) int {
	if small {
		return 2
	}
	return 20
}

// serviceBudget is the schedule budget of every request, a tenth of the
// documented request's 3000.
func serviceBudget(small bool) int {
	if small {
		return 30
	}
	return 300
}

// serviceRequest is one request of the closed loop.
type serviceRequest struct {
	req    service.CampaignRequest
	cached bool
}

// freshRequest is request i of batch b: a campaign no earlier request
// asked for, so the daemon runs it.
func freshRequest(cfg config, b, i, shards int) service.CampaignRequest {
	n := (b+1)*serviceBatch + i // batches start at -1
	prog := servicePrograms[n%len(servicePrograms)]
	seed := campaign.TrialSeed(cfg.seed, "perfbench/service", prog, n)
	if seed == 0 {
		seed = 1
	}
	r := service.CampaignRequest{
		Program: prog,
		Tools:   serviceTools,
		Budget:  serviceBudget(cfg.small),
		Trials:  serviceTrials,
		Seed:    seed,
		// Workers is an execution hint outside the cache key: one fleet
		// worker per job keeps the nproc concurrent jobs on nproc cores.
		Workers: 1,
		Shards:  shards,
	}
	return r
}

// serviceFresh returns the fresh requests of batch b, the last one
// sharded across nproc shards.
func serviceFresh(cfg config, b int) []serviceRequest {
	n := serviceBatch - serviceCached
	out := make([]serviceRequest, n)
	for i := range out {
		shards := 0
		if i == n-1 {
			shards = cfg.workers
		}
		out[i] = serviceRequest{req: freshRequest(cfg, b, i, shards)}
	}
	return out
}

// serviceBatchRequests returns batch b's requests in submission order:
// its fresh requests with repeats of batch b-1's first fresh requests,
// which have completed, at positions 1 and 4. Batch -1 is the warm-up
// batch, run before measuring.
func serviceBatchRequests(cfg config, b int) []serviceRequest {
	fresh := serviceFresh(cfg, b)
	prev := serviceFresh(cfg, b-1)
	out := make([]serviceRequest, 0, serviceBatch)
	repeated := 0
	for i, r := range fresh {
		if i == 1 || i == 3 {
			out = append(out, serviceRequest{req: prev[repeated].req, cached: true})
			repeated++
		}
		out = append(out, r)
	}
	return out
}

// daemon is rffd in-process: a server on a temporary store, served over
// loopback HTTP.
type daemon struct {
	dir    string
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// newStoreDir makes an empty directory for a daemon's store.
func newStoreDir(cfg config) (string, error) {
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, "rffd-store-")
}

// startDaemon starts rffd on a fresh, empty store.
func startDaemon(cfg config) (*daemon, error) {
	dir, err := newStoreDir(cfg)
	if err != nil {
		return nil, err
	}
	d, err := openDaemon(cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
	}
	return d, err
}

// openDaemon starts rffd on the store in dir and serves it on a bound
// loopback listener.
func openDaemon(cfg config, dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{Store: st, MaxJobs: cfg.workers})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// ready checks that the daemon answers over HTTP. The listener is bound
// before startDaemon returns, so requests queue until the server
// accepts them; this is a check, not part of starting.
func (d *daemon) ready() error {
	_, err := d.get("/v1/healthz")
	return err
}

// stop shuts the HTTP server and the daemon down, waits for both, and
// removes the store.
func (d *daemon) stop() {
	d.shutdown()
	os.RemoveAll(d.dir)
}

// shutdown stops the daemon and leaves its store in place.
func (d *daemon) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Drain(ctx)
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// jobRun is one request's client-side record.
type jobRun struct {
	req      serviceRequest
	id       string
	cacheHit bool
	state    string
	report   []byte
	err      error

	start, submitted, notified, reported time.Time
	events                               int
	view                                 service.JobView
	// notReady counts views that were not yet terminal after the
	// terminal event.
	notReady int
}

// do submits one request, waits on its SSE stream for the terminal
// event, and fetches the job's view and its report.
func (d *daemon) do(r serviceRequest) *jobRun {
	jr := &jobRun{req: r, start: time.Now()}
	body, err := json.Marshal(r.req)
	if err != nil {
		jr.err = err
		return jr
	}
	resp, err := d.client.Post(d.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		jr.err = err
		return jr
	}
	var view service.JobView
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &view)
	}
	if err != nil {
		jr.err = err
		return jr
	}
	jr.submitted = time.Now()
	jr.id, jr.cacheHit = view.ID, view.CacheHit
	var terminalState string
	if terminalState, jr.events, err = d.waitTerminal(view.ID); err != nil {
		jr.err = err
		return jr
	}
	jr.notified = time.Now()
	// rffd emits the terminal event before it records the job as done
	// and indexes its report, so the report can still be missing here;
	// wait on the job's state first.
	for {
		data, err := d.get("/v1/jobs/" + view.ID)
		if err == nil {
			err = json.Unmarshal(data, &jr.view)
		}
		if err != nil {
			jr.err = err
			return jr
		}
		if jr.view.State.Terminal() {
			break
		}
		jr.notReady++
		if time.Since(jr.notified) > reportWait {
			jr.err = fmt.Errorf("job %s still %s %v after its terminal event", view.ID, jr.view.State, reportWait)
			return jr
		}
		time.Sleep(50 * time.Microsecond)
	}
	if jr.state = string(jr.view.State); jr.state != terminalState {
		jr.err = fmt.Errorf("job %s: terminal event says %s, state is %s", view.ID, terminalState, jr.state)
		return jr
	}
	if jr.report, err = d.get("/v1/jobs/" + view.ID + "/report"); err != nil {
		jr.err = err
		return jr
	}
	jr.reported = time.Now()
	return jr
}

// reportWait bounds the wait for a job's state after its terminal event.
const reportWait = 10 * time.Second

// terminal maps the daemon's terminal event kinds to job states.
var terminal = map[string]string{
	service.EvJobDone:      string(service.JobDone),
	service.EvJobFailed:    string(service.JobFailed),
	service.EvJobCancelled: string(service.JobCancelled),
}

// waitTerminal reads the job's SSE stream until its terminal event and
// returns the state it names and the number of events read.
func (d *daemon) waitTerminal(id string) (state string, events int, err error) {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		kind, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		events++
		if s, ok := terminal[kind]; ok {
			return s, events, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", events, err
	}
	return "", events, fmt.Errorf("job %s: event stream ended without a terminal event", id)
}

// runBatch drains one batch through nproc closed-loop clients: each
// takes the next request once its previous one has its report.
func (d *daemon) runBatch(reqs []serviceRequest, clients int) []*jobRun {
	out := make([]*jobRun, len(reqs))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				out[i] = d.do(reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// serviceChecker checks every job and compares each cache hit's report
// with the fresh report of the same request.
type serviceChecker struct {
	fresh map[string][]byte // canonical request JSON -> fresh report
}

func requestKey(r service.CampaignRequest) string {
	data, _ := json.Marshal(r) // a CampaignRequest always encodes
	return string(data)
}

// check records the batch's failures and returns the executions and
// bug-finding cells of its fresh jobs.
func (c *serviceChecker) check(res *result, jobs []*jobRun) (execs, bugs int64) {
	for _, j := range jobs {
		res.attempted++
		switch {
		case j.err != nil:
			res.failed++
			res.fail("%s %s: %v", j.req.req.Program, j.id, j.err)
			continue
		case j.state != string(service.JobDone):
			res.failed++
			res.fail("%s %s: ended %s, want done", j.req.req.Program, j.id, j.state)
			continue
		case j.cacheHit != j.req.cached:
			res.failed++
			res.fail("%s %s: cache hit %v, want %v", j.req.req.Program, j.id, j.cacheHit, j.req.cached)
			continue
		}
		key := requestKey(j.req.req)
		if j.cacheHit {
			if err := sameReport(c.fresh[key], j.report); err != nil {
				res.failed++
				res.fail("%s %s: %v", j.req.req.Program, j.id, err)
			}
			continue
		}
		if prev, ok := c.fresh[key]; ok && !bytes.Equal(prev, j.report) {
			res.failed++
			res.fail("%s %s: fresh report differs from an earlier run of the same request", j.req.req.Program, j.id)
			continue
		}
		c.fresh[key] = j.report
		var rep service.CampaignResult
		if err := json.Unmarshal(j.report, &rep); err != nil {
			res.failed++
			res.fail("%s %s: report: %v", j.req.req.Program, j.id, err)
			continue
		}
		for _, byProg := range rep.Outcomes {
			for _, outs := range byProg {
				for _, o := range outs {
					execs += int64(o.Executions)
				}
			}
		}
		bugs += int64(rep.BugsFound)
	}
	return execs, bugs
}

// sameReport is the cache-hit check: a cached report must be
// byte-identical to the fresh one.
func sameReport(fresh, cached []byte) error {
	if fresh == nil {
		return fmt.Errorf("cache hit for a request with no fresh report")
	}
	if !bytes.Equal(fresh, cached) {
		return fmt.Errorf("cached report (%d bytes) differs from the fresh report (%d bytes)", len(cached), len(fresh))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serviceLoop drives batches of requests through a daemon, replacing
// the daemon every epoch.
type serviceLoop struct {
	cfg    config
	res    *result
	chk    *serviceChecker
	d      *daemon
	next   int // next batch
	served int // batches the current daemon has served
}

// warmUp runs the fresh requests of the batch before the next one,
// which the next batch repeats.
func (l *serviceLoop) warmUp() {
	l.chk.check(l.res, l.d.runBatch(serviceFresh(l.cfg, l.next-1), l.cfg.workers))
}

// run drives batches until deadline has passed and at least minBatches have
// run, and calls each with every batch's jobs and its start and end.
func (l *serviceLoop) run(deadline time.Time, minBatches int, each func(jobs []*jobRun, start, end time.Time)) error {
	for n := 0; n < minBatches || time.Now().Before(deadline); n++ {
		if l.served == serviceEpoch(l.cfg.small) {
			l.d.stop()
			d, err := startDaemon(l.cfg)
			if err == nil {
				if err = d.ready(); err != nil {
					d.stop()
				}
			}
			if err != nil {
				l.d = nil
				return err
			}
			l.d, l.served = d, 0
			l.warmUp()
		}
		start := time.Now()
		jobs := l.d.runBatch(serviceBatchRequests(l.cfg, l.next), l.cfg.workers)
		end := time.Now()
		l.next++
		l.served++
		each(jobs, start, end)
	}
	return nil
}

// runService measures rffd's submit-to-report latency under a closed
// loop of nproc clients.
func runService(cfg config) *result {
	res := newResult()
	// Set-up is restarting rffd on its data directory, which is made
	// once, untimed. Making and deleting directories on the host's
	// shared virtual disk took 0.1 to 0.2 ms per daemon, varying from
	// run to run, more than the daemon's own start (about 70 us).
	dir, startErr := newStoreDir(cfg)
	if startErr != nil {
		res.fail("rffd store: %v", startErr)
		return res
	}
	d, setup := timeSetup(func() *daemon {
		d, err := openDaemon(cfg, dir)
		if err != nil && startErr == nil {
			startErr = err
		}
		return d
	}, func(d *daemon) {
		if d != nil {
			d.shutdown()
		}
	})
	if startErr == nil {
		startErr = d.ready()
	}
	if startErr != nil {
		if d != nil {
			d.shutdown()
		}
		os.RemoveAll(dir)
		res.fail("rffd did not start: %v", startErr)
		return res
	}
	res.set("setup_s", "s", setup)
	loop := &serviceLoop{cfg: cfg, res: res, chk: &serviceChecker{fresh: map[string][]byte{}}, d: d}
	defer func() {
		if loop.d != nil {
			loop.d.stop()
		}
	}()
	loop.warmUp()

	measureFor := cfg.seconds
	if cfg.trace {
		measureFor /= 2
	}
	deadline := time.Now().Add(time.Duration(measureFor * float64(time.Second)))
	var (
		fresh, cached []float64
		walls, rates  []float64
		execs, bugs   int64
	)
	epoch := serviceEpoch(cfg.small)
	mem := startMem()
	err := loop.run(deadline, epoch, func(jobs []*jobRun, start, end time.Time) {
		wall := end.Sub(start).Seconds()
		n, found := loop.chk.check(res, jobs)
		if len(walls) < epoch {
			bugs += found
		}
		walls = append(walls, wall)
		rates = append(rates, float64(n)/wall)
		execs += n
		for _, j := range jobs {
			if j.err != nil || j.reported.IsZero() {
				continue
			}
			if j.cacheHit {
				cached = append(cached, ms(j.reported.Sub(j.start)))
			} else {
				fresh = append(fresh, ms(j.reported.Sub(j.start)))
			}
		}
	})
	setMemory(res, mem, execs)
	if err != nil {
		res.fail("rffd did not restart: %v", err)
		return res
	}
	l := summarizeUpTo(fresh, 90)
	res.set("wall_s", "s", median(walls))
	res.set("execs_per_s", "1/s", median(rates))
	res.set("op_p50_ms", "ms", l.p50)
	res.set("op_tail_ms", "ms", l.tail)
	res.set("bugs_found", "count", float64(bugs))
	c := summarize(cached)
	res.notef("operation = one fresh job, POST to report; %s; %d batches of %d requests (%d cache hits, 1 sharded), each tools %v, %d trials, budget %d, from %d clients, a fresh daemon every %d batches",
		l.note("op_tail_ms"), len(walls), serviceBatch, serviceCached, serviceTools, serviceTrials, serviceBudget(cfg.small), cfg.workers, epoch)
	res.notef("cache hits: p50 %.3f ms, %s; jobs/s %.1f", c.p50, c.note("cache-hit tail"), ratio(float64(len(walls)*serviceBatch), sum(walls)))
	res.notef("executions are those of fresh jobs; bugs_found = bug-finding cells of fresh jobs in the first %d batches", epoch)

	if cfg.trace {
		traceService(cfg, res, loop)
	}
	return res
}

// traceService runs further batches fetching each job's timestamps,
// times store calls on the fetched reports, runs the sharded requests'
// campaigns through shard.Fuzz with a telemetry hub, and sets the
// per-layer metrics.
//
// bench.trace_overhead_pct stays 0 here: the traced batches send the
// same requests through the same client code as the untraced ones, and
// the tracing work (store probes, shard.Fuzz) runs between batches,
// outside every timed region, so there is no overhead to measure. A
// gap between traced and untraced batch walls would be run-to-run
// noise.
func traceService(cfg config, res *result, loop *serviceLoop) {
	t := newTracer("service")
	tmp := filepath.Join(cfg.out, "tmp")
	dir, err := os.MkdirTemp(tmp, "store-probe-")
	if err != nil {
		res.fail("store probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	probe, err := store.Open(dir)
	if err != nil {
		res.fail("store probe: %v", err)
		return
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	var (
		submit, queue, run, notify, report, cachedMS []float64
		batches                                      int
		jobs, hits, events, notReady                 int64
		putNS, getNS, blobBytes                      float64
		puts, gets                                   int64
		mergeNS                                      []int64
		utilization, steals, epochs                  int64
		shardRuns                                    int64
	)
	err = loop.run(deadline, 1, func(batch []*jobRun, start, end time.Time) {
		t.record("service.batch", 0, start, end)
		batches++
		loop.chk.check(res, batch)
		for _, j := range batch {
			if j.err != nil {
				continue
			}
			jobs++
			notReady += int64(j.notReady)
			events += int64(j.events)
			submit = append(submit, ms(j.submitted.Sub(j.start)))
			notifyAt := j.notified
			report = append(report, ms(j.reported.Sub(notifyAt)))
			if j.cacheHit {
				hits++
				cachedMS = append(cachedMS, ms(j.reported.Sub(j.start)))
				continue
			}
			created, err1 := time.Parse(time.RFC3339Nano, j.view.Created)
			started, err2 := time.Parse(time.RFC3339Nano, j.view.Started)
			finished, err3 := time.Parse(time.RFC3339Nano, j.view.Finished)
			if err1 == nil && err2 == nil && err3 == nil {
				queue = append(queue, ms(started.Sub(created)))
				run = append(run, ms(finished.Sub(started)))
				notify = append(notify, ms(notifyAt.Sub(finished)))
			}

			t.begin("store.put")
			p0 := time.Now()
			_, err := probe.Put(j.report)
			putNS += float64(time.Since(p0).Nanoseconds())
			t.end()
			if err != nil {
				res.fail("store.Put: %v", err)
				continue
			}
			puts++
			blobBytes += float64(len(j.report))
			t.begin("store.get")
			g0 := time.Now()
			got, err := probe.Get(store.SumID(j.report))
			getNS += float64(time.Since(g0).Nanoseconds())
			t.end()
			gets++
			if err != nil || !bytes.Equal(got, j.report) {
				res.fail("store.Get did not return the blob just put: %v", err)
			}

			if r := j.req.req; r.Shards > 0 {
				// Each RFF trial of the job ran on shard.Fuzz; run them
				// again directly with the same parameters.
				bp := bench.MustGet(r.Program)
				for trial := 0; trial < r.Trials; trial++ {
					sink := newTimedSink()
					t.begin("shard.fuzz")
					rep := shard.Fuzz(bp.Name, bp.Body, shard.Options{
						Budget:         r.Budget,
						MaxSteps:       r.MaxSteps,
						Seed:           campaign.TrialSeed(r.Seed, "RFF", bp.Name, trial),
						StopAtFirstBug: true,
						Telemetry:      sink,
						Shards:         r.Shards,
					})
					t.end()
					shardRuns++
					if err := sameShardOutcome(j.report, bp.Name, trial, rep.FirstBug, rep.Executions); err != nil {
						res.fail("%s: shard.Fuzz with the request's parameters: %v", r.Program, err)
						res.failed++
					}
					mergeNS = append(mergeNS, sink.observed(telemetry.MShardMergeNS, "")...)
					utilization += sink.last(telemetry.MShardUtilization)
					steals += sink.total(telemetry.MShardSteals)
					epochs += int64(len(sink.observed(telemetry.MShardMergeNS, "")))
				}
			}
		}
	})
	if err != nil {
		res.fail("rffd did not restart: %v", err)
		return
	}
	writeSpans(res, t, cfg)

	c := summarize(cachedMS)
	res.set("service.submit_ms", "ms", median(submit))
	res.set("service.queue_wait_ms", "ms", median(queue))
	res.set("service.run_ms", "ms", median(run))
	res.set("service.notify_ms", "ms", median(notify))
	res.set("service.report_ms", "ms", median(report))
	res.set("service.cache_hit_ratio", "ratio", ratio(float64(hits), float64(jobs)))
	res.set("service.cached_p50_ms", "ms", c.p50)
	res.set("service.cached_tail_ms", "ms", c.tail)
	res.set("store.put_us", "us", ratio(putNS-float64(puts)*t.clockNS, float64(puts))/1e3)
	res.set("store.get_us", "us", ratio(getNS-float64(gets)*t.clockNS, float64(gets))/1e3)
	res.set("store.blob_kb", "kB", ratio(blobBytes, float64(puts))/1e3)
	var merge float64
	for _, ns := range mergeNS {
		merge += float64(ns)
	}
	res.set("shard.merge_ms", "ms", ratio(merge, float64(shardRuns))/1e6)
	res.set("shard.utilization_pct", "%", ratio(float64(utilization), float64(shardRuns)))
	res.set("shard.steals_per_epoch", "count", ratio(float64(steals), float64(epochs)))
	res.set("telemetry.events_per_job", "count", ratio(float64(events), float64(jobs)))
	res.notef("traced: %d batches, %d jobs; submit/queue_wait/run/notify/report are medians; %s; %d job views not yet terminal after the terminal event", batches, jobs, c.note("service.cached_tail_ms"), notReady)
	res.notef("ratio bases: cache_hit_ratio = %d hits / %d jobs (designed %d/%d); store.* over %d fresh reports; shard.merge_ms per campaign over %d sharded campaigns, steals per epoch over %d epochs",
		hits, jobs, serviceCached, serviceBatch, puts, shardRuns, epochs)
}

// sameShardOutcome checks that one RFF trial of a sharded job matches
// shard.Fuzz run directly with the request's parameters.
func sameShardOutcome(report []byte, program string, trial, firstBug, executions int) error {
	var rep service.CampaignResult
	if err := json.Unmarshal(report, &rep); err != nil {
		return err
	}
	outs := rep.Outcomes["RFF"][program]
	if trial >= len(outs) {
		return fmt.Errorf("job reported %d RFF trials, want trial %d", len(outs), trial)
	}
	if o := outs[trial]; o.FirstBug != firstBug || o.Executions != executions {
		return fmt.Errorf("trial %d: first bug %d after %d executions, job reported %d after %d", trial, firstBug, executions, o.FirstBug, o.Executions)
	}
	return nil
}
