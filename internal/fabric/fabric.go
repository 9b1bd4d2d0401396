// Package fabric is the failure-aware cache-peering layer of the sweep
// fabric: a client that answers content-addressed cache misses from a
// static set of peer nodes before the local node falls back to
// simulating.
//
// The content-addressed key schema (SHA-256 over the normalized cell
// spec, see harness.RunSpec.CacheKey) makes every entry
// location-independent: any node that holds the key holds the answer.
// Peers are ranked per key by rendezvous (highest-random-weight)
// hashing, so every node agrees on which peer is the likely owner of a
// key without any coordination, and the load of misses spreads evenly.
//
// The client is built for peers that fail: every peer carries a
// circuit breaker (DefaultBreakerOpens consecutive failures open it; it
// reopens for trials after an exponentially-growing backoff), a
// background prober marks unreachable peers unhealthy and closes
// breakers when they return, and lookups are hedged — if the
// best-ranked peer has not answered within
// defaultHedgeDelay, the second-ranked peer is asked concurrently, at
// most defaultMaxFanout peers per lookup. Every failure mode (connection
// refused, timeout, HTTP error, corrupt body) resolves to a cache miss,
// never an error: the caller simulates locally and the sweep proceeds.
//
// It is also the only code that sends a request to another node: the
// cluster layer's addressed requests (Do) share the lookups' and the
// prober's transport, breaker gate and strike accounting (send).
package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the zero-value Config knobs (defaultTimeout,
// defaultProbeInterval); the hedge delay, fan-out, breaker threshold and
// breaker backoff are fixed, not knobs.
const (
	defaultTimeout        = 2 * time.Second
	defaultHedgeDelay     = 75 * time.Millisecond
	defaultMaxFanout      = 2
	DefaultBreakerOpens   = 3
	defaultBreakerBackoff = time.Second
	defaultBreakerMax     = 30 * time.Second
	defaultProbeInterval  = 5 * time.Second
)

// dialTimeout bounds the connect of every node-to-node request: a dead
// host fails fast whatever deadline, or none, its request carries.
const dialTimeout = 3 * time.Second

// errPeerOpen is the answer for a peer whose breaker is open: nothing
// was dialled.
var errPeerOpen = errors.New("fabric: peer circuit breaker open")

// maxEntryBytes bounds a peer response body (a single encoded cell
// result is a few KB; this is a defensive ceiling, not a tuning knob).
const maxEntryBytes = 32 << 20

// Config configures a peering client.
type Config struct {
	// Peers is the static peer list (base URLs, e.g.
	// "http://10.0.0.2:8347"). Empty: New returns nil, and a nil *Client
	// answers every Lookup with a miss at the cost of one nil check.
	Peers []string
	// Timeout bounds each lookup and probe request (0: defaultTimeout);
	// a request sent with Do carries its caller's deadline instead.
	Timeout time.Duration
	// ProbeInterval is the background health-probe period; a reachable
	// /healthz closes the peer's breaker (0: defaultProbeInterval;
	// negative: no prober — breakers then reopen only via the
	// half-open-trial path).
	ProbeInterval time.Duration
	// Event, when non-nil, receives observability events
	// (kind, detail) — peer errors, breaker transitions, probe state
	// changes.
	Event func(kind, detail string)
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeout
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = defaultProbeInterval
	}
	return c
}

// timing is a client's hedge and breaker clock: how long the best-ranked
// peer gets before a lookup is hedged, and the breaker's first open
// duration, doubling per consecutive open up to a cap.
type timing struct{ hedge, backoff, maxBackoff time.Duration }

// defaultTiming is every production client's clock; fabric's own tests
// pass a shorter one to newClient.
var defaultTiming = timing{defaultHedgeDelay, defaultBreakerBackoff, defaultBreakerMax}

// PeerStatus is one peer's operational state, served via /healthz.
type PeerStatus struct {
	URL string `json:"url"`
	// State is "ok" (breaker closed), "open" (breaker open, peer
	// skipped) or "half-open" (open but past backoff: the next request is
	// its one trial).
	State string `json:"state"`
	// Healthy is the last background probe's verdict (true before the
	// first probe completes, so an unprobed peer is not shunned).
	Healthy          bool   `json:"healthy"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Errors           uint64 `json:"errors"`
}

// Stats aggregates lookup-level counters.
type Stats struct {
	Hits, Misses, Errors, Hedges uint64
}

type peer struct {
	url string

	mu        sync.Mutex
	fails     int           // consecutive failures
	openUntil time.Time     // breaker open until (zero: closed)
	backoff   time.Duration // next open duration
	unhealthy bool          // last probe failed
	trial     bool          // a request is in flight as the half-open trial

	hits, misses, errors atomic.Uint64
}

// admit is the breaker's one gate, for a Do and for each Lookup
// candidate: a closed breaker admits the request; a half-open one admits
// it as the trial (trial true) unless another trial is in flight. The
// trial's caller must endTrial once the request has its verdict.
func (p *peer) admit(now time.Time) (ok, trial bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fails < DefaultBreakerOpens {
		return true, false
	}
	if p.trial || !now.After(p.openUntil) {
		return false, false
	}
	p.trial = true
	return true, true
}

func (p *peer) endTrial() {
	p.mu.Lock()
	p.trial = false
	p.mu.Unlock()
}

// ok closes the breaker.
func (p *peer) ok() {
	p.mu.Lock()
	p.fails = 0
	p.openUntil = time.Time{}
	p.backoff = 0
	p.mu.Unlock()
}

// fail records a failure; at DefaultBreakerOpens the breaker opens for an
// exponentially-growing backoff. Reports whether this call opened it, and
// whether it was open (or half-open) already.
func (p *peer) fail(now time.Time, tm timing) (opened, already bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	already = p.fails >= DefaultBreakerOpens
	p.fails++
	if p.fails < DefaultBreakerOpens {
		return false, already
	}
	if p.backoff == 0 {
		p.backoff = tm.backoff
	}
	opened = now.After(p.openUntil)
	p.openUntil = now.Add(p.backoff)
	if p.backoff *= 2; p.backoff > tm.maxBackoff {
		p.backoff = tm.maxBackoff
	}
	return opened, already
}

func (p *peer) status(now time.Time) PeerStatus {
	p.mu.Lock()
	st := PeerStatus{
		URL:              p.url,
		State:            "ok",
		Healthy:          !p.unhealthy,
		ConsecutiveFails: p.fails,
	}
	if p.fails >= DefaultBreakerOpens {
		if now.After(p.openUntil) {
			st.State = "half-open"
		} else {
			st.State = "open"
		}
	}
	p.mu.Unlock()
	st.Hits = p.hits.Load()
	st.Misses = p.misses.Load()
	st.Errors = p.errors.Load()
	return st
}

// Client performs failure-aware peer cache lookups and carries the
// cluster's addressed requests. A nil *Client is valid: it always misses
// and knows no peer.
type Client struct {
	cfg   Config
	tm    timing
	hc    *http.Client
	peers []*peer

	hits, misses, errors atomic.Uint64
	hedges               atomic.Uint64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a client for cfg and starts its background health prober.
// Returns nil when cfg.Peers is empty.
func New(cfg Config) *Client { return newClient(cfg, defaultTiming) }

func newClient(cfg Config, tm timing) *Client {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil
	}
	// Only the dial is bounded here; each request brings its deadline in
	// its context, so a proxied /export can block for the length of its
	// sweep on the same pool that bounds a steal claim.
	dial := (&net.Dialer{Timeout: dialTimeout}).DialContext
	c := &Client{
		cfg:  cfg,
		tm:   tm,
		hc:   &http.Client{Transport: &http.Transport{DialContext: dial}},
		stop: make(chan struct{}),
	}
	for _, u := range cfg.Peers {
		c.peers = append(c.peers, &peer{url: strings.TrimRight(u, "/")})
	}
	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c
}

// Close stops the health prober. Lookups in flight complete; later
// lookups still work (probing just stops).
func (c *Client) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Stats snapshots the lookup-level counters (zeroes on nil).
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Errors: c.errors.Load(),
		Hedges: c.hedges.Load(),
	}
}

// Snapshot reports per-peer state for /healthz (nil on nil).
func (c *Client) Snapshot() []PeerStatus {
	if c == nil {
		return nil
	}
	now := time.Now()
	out := make([]PeerStatus, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p.status(now))
	}
	return out
}

// rendezvousScore is the shared HRW hash: fnv64a over "key|member".
func rendezvousScore(key, member string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	io.WriteString(h, "|")
	io.WriteString(h, member)
	return h.Sum64()
}

// rankBy orders members for key by rendezvous (highest-random-weight)
// hashing over each member's name. Every node that evaluates the same
// (key, name set) gets the same order, so a cluster agrees on each
// key's preferred owner with no coordination or shared state. The
// members slice is not modified.
func rankBy[T any](key string, members []T, name func(T) string) []T {
	out := append([]T(nil), members...)
	sort.SliceStable(out, func(a, b int) bool {
		return rendezvousScore(key, name(out[a])) > rendezvousScore(key, name(out[b]))
	})
	return out
}

// Rank orders member names for key by rendezvous hashing (see rankBy);
// Rank(...)[0] is the key's owner.
func Rank(key string, members []string) []string {
	return rankBy(key, members, func(m string) string { return m })
}

type lookupRes struct {
	val any
	url string
	ok  bool
}

// Lookup GETs path from the peers, ranked (and their breakers tripped)
// by the content-addressed key, and returns the first response that
// decode accepts — the decoded value, so a body is parsed and verified
// exactly once — with the answering peer's URL. The caller owns the
// format of the endpoint, so it owns decode: an error from it counts as
// a peer failure (corrupt response) and the lookup falls through. Any
// failure — no peers, breakers all open, peers down, slow, or corrupt —
// is reported as a miss (false), never an error: the caller's fallback
// is local work. Result lookups (/cache/{key}) are the one caller.
//
// Candidates pass the breaker's one gate (admit), so a half-open peer is
// asked by one lookup, its trial, while every concurrent lookup skips it
// undialled.
func (c *Client) Lookup(ctx context.Context, key, path string, decode func(body []byte) (any, error)) (any, string, bool) {
	if c == nil {
		return nil, "", false
	}
	now := time.Now()
	type candidate struct {
		p     *peer
		trial bool
	}
	var cands []candidate
	for _, p := range rankBy(key, c.peers, func(p *peer) string { return p.url }) {
		if ok, trial := p.admit(now); ok {
			cands = append(cands, candidate{p, trial})
			if len(cands) == defaultMaxFanout {
				break
			}
		}
	}
	if len(cands) == 0 {
		c.misses.Add(1)
		return nil, "", false
	}
	// Bound the whole lookup: worst case is every candidate timing out
	// in sequence, and the answer to "peers are slow" is local
	// simulation, not waiting.
	ctx, cancel := context.WithTimeout(ctx,
		time.Duration(len(cands))*c.cfg.Timeout+c.tm.hedge)
	defer cancel()

	ch := make(chan lookupRes, len(cands))
	launch := func(cd candidate) {
		go func() {
			r := c.fetch(ctx, cd.p, path, decode)
			if cd.trial {
				cd.p.endTrial() // the fetch has its verdict
			}
			ch <- r
		}()
	}
	launch(cands[0])
	inflight, next := 1, 1
	defer func() {
		// A trial admitted for a candidate never asked is no trial.
		for _, cd := range cands[next:] {
			if cd.trial {
				cd.p.endTrial()
			}
		}
	}()
	var hedge <-chan time.Time
	if len(cands) > 1 {
		t := time.NewTimer(c.tm.hedge)
		defer t.Stop()
		hedge = t.C
	}
	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			if r.ok {
				c.hits.Add(1)
				return r.val, r.url, true
			}
			if inflight == 0 && next < len(cands) {
				launch(cands[next])
				next++
				inflight++
			}
		case <-hedge:
			hedge = nil
			if next < len(cands) {
				c.hedges.Add(1)
				launch(cands[next])
				next++
				inflight++
			}
		case <-ctx.Done():
			c.misses.Add(1)
			return nil, "", false
		}
	}
	c.misses.Add(1)
	return nil, "", false
}

// send is the one place a request leaves for another node: request,
// strike. It does not consult the breaker: Do and Lookup gate first
// (admit), and the prober's job is to dial open breakers. Any HTTP
// response means the peer is reachable — what else it means is the
// caller's to say; no response is a strike.
func (c *Client) send(ctx context.Context, p *peer, method, path string, header http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, p.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if header != nil {
		req.Header = header
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.strike(ctx, p, err.Error())
	}
	return resp, err
}

// strike counts one failure of a request made under ctx against p,
// opening its breaker at the threshold. A transport failure or an expired
// deadline counts; a request its caller cancelled — a client hanging up
// on a proxied stream, shutdown, a hedge's loser — says nothing about the
// peer and does not. A strike against a breaker already open is counted
// but emits no peer-error event: the opening (and the prober's
// peer-unreachable) already reported it, and a dead peer's every probe
// would otherwise push one more event into the flight recorder's ring.
func (c *Client) strike(ctx context.Context, p *peer, why string) {
	if errors.Is(ctx.Err(), context.Canceled) {
		return
	}
	p.errors.Add(1)
	c.errors.Add(1)
	opened, already := p.fail(time.Now(), c.tm)
	if opened {
		c.event("peer-breaker-open", p.url)
	}
	if !already {
		c.event("peer-error", p.url+": "+why)
	}
}

// peer finds the configured peer with the given base URL (nil: none, as
// on a nil client).
func (c *Client) peer(url string) *peer {
	if c != nil {
		url = strings.TrimRight(url, "/") // as New stored them
		for _, p := range c.peers {
			if p.url == url {
				return p
			}
		}
	}
	return nil
}

// HasPeer reports whether Do can address peerURL.
func (c *Client) HasPeer(peerURL string) bool { return c.peer(peerURL) != nil }

// Do sends one addressed request to the configured peer with base URL
// peerURL under ctx's deadline (it adds none) and hands the caller the
// response to read and close. An unknown URL is an error, never a dial;
// an open breaker is errPeerOpen, and so is a half-open one while another
// request is its trial; any response closes the breaker.
func (c *Client) Do(ctx context.Context, peerURL, method, path string, header http.Header, body []byte) (*http.Response, error) {
	p := c.peer(peerURL)
	if p == nil {
		return nil, fmt.Errorf("fabric: %s is not a configured peer", peerURL)
	}
	ok, trial := p.admit(time.Now())
	if !ok {
		return nil, errPeerOpen
	}
	if trial {
		// Released on every verdict — a response (after ok below), a
		// strike, or the caller cancelling — once the breaker has it.
		defer p.endTrial()
	}
	resp, err := c.send(ctx, p, method, path, header, body)
	if err == nil {
		p.ok()
	}
	return resp, err
}

// fetch asks one peer for one key's path. It reads a 5xx or a body decode
// rejects as a strike too; a 404 is an authoritative (healthy) miss.
func (c *Client) fetch(ctx context.Context, p *peer, path string, decode func(body []byte) (any, error)) lookupRes {
	fail := func(why string) lookupRes { c.strike(ctx, p, why); return lookupRes{} }
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	resp, err := c.send(rctx, p, http.MethodGet, path, nil, nil)
	if err != nil {
		return lookupRes{}
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxEntryBytes))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
		if err != nil {
			return fail(err.Error())
		}
		val, err := decode(body)
		if err != nil {
			return fail("corrupt response: " + err.Error())
		}
		p.ok()
		p.hits.Add(1)
		return lookupRes{val: val, url: p.url, ok: true}
	case resp.StatusCode == http.StatusNotFound:
		// The peer is healthy, it just does not hold the key.
		p.ok()
		p.misses.Add(1)
		return lookupRes{}
	default:
		return fail(fmt.Sprintf("HTTP %d", resp.StatusCode))
	}
}

// probeLoop periodically probes every peer's /healthz. Any HTTP
// response at all (even 503: a draining peer can still serve its
// cache) marks the peer healthy and closes its breaker, so recovered
// peers rejoin lookups without waiting for a half-open trial; no response
// is a strike, so the prober and the breaker cannot disagree for long.
func (c *Client) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, p := range c.peers {
				c.probe(p)
			}
		}
	}
}

func (c *Client) probe(p *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	resp, err := c.send(ctx, p, http.MethodGet, "/healthz", nil, nil)
	reachable := err == nil
	if reachable {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}
	p.mu.Lock()
	was := p.unhealthy
	p.unhealthy = !reachable
	p.mu.Unlock()
	if reachable {
		if was {
			c.event("peer-recovered", p.url)
		}
		p.ok()
	} else if !was {
		c.event("peer-unreachable", fmt.Sprintf("%s: %v", p.url, err))
	}
}

// event emits an observability event through the configured hook.
func (c *Client) event(kind, detail string) {
	if c.cfg.Event != nil {
		c.cfg.Event(kind, detail)
	}
}
