// Package fabric is the failure-aware cache-peering layer of the sweep
// fabric: a client that answers content-addressed cache misses from a
// static set of peer nodes before the local node falls back to
// simulating.
//
// The content-addressed key schema (SHA-256 over the normalized cell
// spec, see simsvc.RunSpec.CacheKey) makes every entry
// location-independent: any node that holds the key holds the answer.
// Peers are ranked per key by rendezvous (highest-random-weight)
// hashing, so every node agrees on which peer is the likely owner of a
// key without any coordination, and the load of misses spreads evenly.
//
// The client is built for peers that fail: every peer carries a
// circuit breaker (consecutive failures open it; it reopens for trials
// after an exponentially-growing backoff), a background prober marks
// unreachable peers unhealthy and closes breakers when they return, and
// lookups are hedged — if the best-ranked peer has not answered within
// HedgeDelay, the second-ranked peer is asked concurrently, bounded by
// MaxFanout. Every failure mode (connection refused, timeout, HTTP
// error, corrupt body) resolves to a cache miss, never an error: the
// caller simulates locally and the sweep proceeds.
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

	"repro/internal/faults"
)

// Defaults for the zero-value Config knobs.
const (
	DefaultTimeout        = 2 * time.Second
	DefaultHedgeDelay     = 75 * time.Millisecond
	DefaultMaxFanout      = 2
	DefaultBreakerOpens   = 3
	DefaultBreakerBackoff = time.Second
	DefaultBreakerMax     = 30 * time.Second
	DefaultProbeInterval  = 5 * time.Second
)

// dialTimeout bounds the connect of every node-to-node request: a dead
// host fails fast whatever deadline, or none, its request carries.
const dialTimeout = 3 * time.Second

// ErrPeerOpen is the answer for a peer whose breaker is open: nothing
// was dialled.
var ErrPeerOpen = errors.New("fabric: peer circuit breaker open")

// maxEntryBytes bounds a peer response body (a single encoded cell
// result is a few KB; this is a defensive ceiling, not a tuning knob).
const maxEntryBytes = 32 << 20

// Config configures a peering client.
type Config struct {
	// Peers is the static peer list (base URLs, e.g.
	// "http://10.0.0.2:8347"). Empty: New returns nil, and a nil *Client
	// answers every Lookup with a miss at the cost of one nil check.
	Peers []string
	// Timeout bounds each lookup and probe request (0: DefaultTimeout);
	// a request sent with Do carries its caller's deadline instead.
	Timeout time.Duration
	// HedgeDelay is how long the best-ranked peer gets to answer before
	// the lookup is hedged to the next-ranked peer (0:
	// DefaultHedgeDelay).
	HedgeDelay time.Duration
	// MaxFanout bounds peers consulted (sequentially or hedged) per
	// lookup (0: DefaultMaxFanout).
	MaxFanout int
	// BreakerThreshold opens a peer's circuit breaker after this many
	// consecutive failures (0: DefaultBreakerOpens).
	BreakerThreshold int
	// BreakerBackoff is the initial open duration, doubling per
	// consecutive open up to BreakerMaxBackoff (0: DefaultBreakerBackoff
	// / DefaultBreakerMax).
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// ProbeInterval is the background health-probe period; a reachable
	// /healthz closes the peer's breaker (0: DefaultProbeInterval;
	// negative: no prober — breakers then reopen only via the
	// half-open-trial path).
	ProbeInterval time.Duration
	// Faults injects peer-down / peer-slow / peer-corrupt chaos (nil in
	// production: zero cost).
	Faults *faults.Injector
	// Event, when non-nil, receives observability events
	// (kind, detail) — peer errors, breaker transitions, probe state
	// changes.
	Event func(kind, detail string)
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = DefaultHedgeDelay
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = DefaultMaxFanout
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerOpens
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = DefaultBreakerBackoff
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = DefaultBreakerMax
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	return c
}

// PeerStatus is one peer's operational state, served via /healthz.
type PeerStatus struct {
	URL string `json:"url"`
	// State is "ok" (breaker closed), "open" (breaker open, peer
	// skipped) or "half-open" (open but past backoff: next lookup is a
	// trial).
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

	hits, misses, errors atomic.Uint64
}

// allow reports whether the breaker admits a request now: closed, or
// open-past-backoff (a half-open trial).
func (p *peer) allow(now time.Time, threshold int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fails < threshold || now.After(p.openUntil)
}

// ok closes the breaker.
func (p *peer) ok() {
	p.mu.Lock()
	p.fails = 0
	p.openUntil = time.Time{}
	p.backoff = 0
	p.mu.Unlock()
}

// fail records a failure; at the threshold the breaker opens for an
// exponentially-growing backoff. Reports whether this call opened it.
func (p *peer) fail(now time.Time, cfg Config) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	if p.fails < cfg.BreakerThreshold {
		return false
	}
	if p.backoff == 0 {
		p.backoff = cfg.BreakerBackoff
	}
	opened := now.After(p.openUntil)
	p.openUntil = now.Add(p.backoff)
	if p.backoff *= 2; p.backoff > cfg.BreakerMaxBackoff {
		p.backoff = cfg.BreakerMaxBackoff
	}
	return opened
}

func (p *peer) status(now time.Time, threshold int) PeerStatus {
	p.mu.Lock()
	st := PeerStatus{
		URL:              p.url,
		State:            "ok",
		Healthy:          !p.unhealthy,
		ConsecutiveFails: p.fails,
	}
	if p.fails >= threshold {
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
func New(cfg Config) *Client {
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

// Peers returns the configured peer count (0 on nil).
func (c *Client) Peers() int {
	if c == nil {
		return 0
	}
	return len(c.peers)
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
		out = append(out, p.status(now, c.cfg.BreakerThreshold))
	}
	return out
}

// Available counts peers whose breaker currently admits requests.
func (c *Client) Available() int {
	if c == nil {
		return 0
	}
	now := time.Now()
	n := 0
	for _, p := range c.peers {
		if p.allow(now, c.cfg.BreakerThreshold) {
			n++
		}
	}
	return n
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
func (c *Client) Lookup(ctx context.Context, key, path string, decode func(body []byte) (any, error)) (any, string, bool) {
	if c == nil {
		return nil, "", false
	}
	now := time.Now()
	var cands []*peer
	for _, p := range rankBy(key, c.peers, func(p *peer) string { return p.url }) {
		if p.allow(now, c.cfg.BreakerThreshold) {
			cands = append(cands, p)
			if len(cands) == c.cfg.MaxFanout {
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
		time.Duration(len(cands))*c.cfg.Timeout+c.cfg.HedgeDelay)
	defer cancel()

	ch := make(chan lookupRes, len(cands))
	launch := func(p *peer) {
		go func() { ch <- c.fetch(ctx, p, key, path, decode) }()
	}
	launch(cands[0])
	inflight, next := 1, 1
	var hedge <-chan time.Time
	if len(cands) > 1 {
		t := time.NewTimer(c.cfg.HedgeDelay)
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

// send is the one place a request leaves for another node: gate,
// request, strike. Gated, an open breaker answers ErrPeerOpen and nothing
// is dialled; the prober (whose job is to dial open breakers) and Lookup
// (which consulted allow to pick its candidates) pass gated=false. Any
// HTTP response means the peer is reachable — what else it means is the
// caller's to say; no response is a strike.
func (c *Client) send(ctx context.Context, p *peer, gated bool, method, path string, header http.Header, body []byte) (*http.Response, error) {
	if gated && !p.allow(time.Now(), c.cfg.BreakerThreshold) {
		return nil, ErrPeerOpen
	}
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
// peer and does not.
func (c *Client) strike(ctx context.Context, p *peer, why string) {
	if errors.Is(ctx.Err(), context.Canceled) {
		return
	}
	p.errors.Add(1)
	c.errors.Add(1)
	if p.fail(time.Now(), c.cfg) {
		c.event("peer-breaker-open", p.url)
	}
	c.event("peer-error", p.url+": "+why)
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
// an open breaker is ErrPeerOpen; any response closes the breaker.
func (c *Client) Do(ctx context.Context, peerURL, method, path string, header http.Header, body []byte) (*http.Response, error) {
	p := c.peer(peerURL)
	if p == nil {
		return nil, fmt.Errorf("fabric: %s is not a configured peer", peerURL)
	}
	resp, err := c.send(ctx, p, true, method, path, header, body)
	if err == nil {
		p.ok()
	}
	return resp, err
}

// fetch asks one peer for one key. It reads a 5xx or a body decode
// rejects as a strike too; a 404 is an authoritative (healthy) miss.
func (c *Client) fetch(ctx context.Context, p *peer, key, path string, decode func(body []byte) (any, error)) lookupRes {
	fail := func(why string) lookupRes { c.strike(ctx, p, why); return lookupRes{} }
	if err := c.cfg.Faults.PeerErr(p.url, key); err != nil {
		return fail(err.Error())
	}
	if d := c.cfg.Faults.PeerDelay(p.url, key); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return fail("injected delay exceeded lookup deadline")
		}
	}
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	resp, err := c.send(rctx, p, false, http.MethodGet, path, nil, nil)
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
		if c.cfg.Faults.PeerCorrupt(p.url, key) && len(body) > 0 {
			body[len(body)/2] ^= 0xff
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
	resp, err := c.send(ctx, p, false, http.MethodGet, "/healthz", nil, nil)
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
