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
// A lookup is batched: it asks for a set of keys, one request per peer
// per round (Lookup, ServeLookup), so a sweep costs a round trip per
// peer, not one per cell.
//
// The client is built for peers that fail: every peer carries a
// circuit breaker (DefaultBreakerOpens consecutive failures open it; it
// reopens for trials after an exponentially-growing backoff), a
// background prober marks unreachable peers unhealthy and closes
// breakers when they return, and lookups are hedged — a round no peer
// has answered within defaultHedgeDelay sends its keys on to their
// next-ranked peers, at most defaultMaxFanout peers per key. Every
// failure mode (connection refused, timeout, HTTP error, corrupt entry)
// resolves to a cache miss, never an error: the caller simulates locally
// and the sweep proceeds.
//
// It is also the only code that sends a request to another node: the
// cluster's proxied requests and the work-stealing RPCs (Do, Call) share
// the lookups' and the prober's transport, breaker gate and strike
// accounting (send).
package fabric

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
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

// callTimeout bounds each short request Call sends: a listing fetch, a
// steal claim, a completion, a wake hint.
const callTimeout = 10 * time.Second

// errPeerOpen is the answer for a peer whose breaker is open: nothing
// was dialled.
var errPeerOpen = errors.New("fabric: peer circuit breaker open")

// maxBodyBytes bounds a lookup request and response body (an encoded
// cell result is about a kilobyte; this is a defensive ceiling, not a
// tuning knob). A response that would pass it is split, never cut.
const maxBodyBytes = 32 << 20

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

// timing is a client's hedge and breaker clock: how long a lookup round
// gets before it is hedged, and the breaker's first open
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

// Stats aggregates the lookup counters: hits, misses and hedges count
// keys, errors count failed requests.
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

// admit is the breaker's one gate, for a Do and for each peer a Lookup
// may ask: a closed breaker admits the request; a half-open one admits
// it as the trial (trial true) unless another trial is in flight. The
// trial's caller must endTrial once its requests have their verdicts.
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

// Client performs failure-aware peer cache lookups and carries every
// addressed request between nodes. A nil *Client is valid: it always misses
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

// sizesHeader carries, on a lookup response, the byte size of each
// answered key's entry in request order, comma-separated ("0": a miss).
// Keys past the list were not answered — the response reached
// maxBodyBytes — and are asked again.
const sizesHeader = "X-Sdo-Lookup-Sizes"

// Hit is one key a Lookup found: what decode made of a peer's entry for
// it, and that peer's URL.
type Hit struct {
	Val  any
	Peer string
}

// answer is one lookup request's verdict: vals[i] is keys[i]'s decoded
// entry (nil: a miss or a rejected entry) for the answered prefix; the
// keys past it go to the same peer again.
type answer struct {
	p     *peer
	round int
	keys  []string
	vals  []any
}

// Lookup asks the peers for every key in keys and returns the keys some
// peer answered with an entry decode accepts — decode parses and vets an
// entry once, so its value is what the caller keeps. The caller owns the
// entry format, so it owns decode; a rejected entry is a miss for its key
// and a strike against its peer.
//
// Keys are asked in rounds, one POST to path per peer per round carrying
// every key that round sends it. Round r sends each unanswered key to
// its r-th ranked live peer (rendezvous over the key), so round 0 asks
// each key's likely owner; a key a peer misses or fails falls through to
// the next round, at most defaultMaxFanout rounds. A round still in
// flight after defaultHedgeDelay is hedged: the next round starts for
// every key without an answer, and the losers are cancelled. Each peer
// passes the breaker's gate (admit) once per lookup, so a half-open peer
// is asked by one lookup, its trial, while every concurrent lookup skips
// it undialled. Any failure — no peers, breakers all open, peers down,
// slow or corrupt — leaves keys out of the result, never an error: the
// caller's fallback is local work. Hits and misses count per key.
func (c *Client) Lookup(ctx context.Context, path string, keys []string, decode func(key string, body []byte) (any, error)) map[string]Hit {
	hits := make(map[string]Hit)
	if c == nil || len(keys) == 0 {
		return hits
	}
	now := time.Now()
	var live []*peer
	for _, p := range c.peers {
		if ok, trial := p.admit(now); ok {
			live = append(live, p)
			if trial {
				defer p.endTrial() // the lookup's requests have their verdicts
			}
		}
	}
	rounds := min(defaultMaxFanout, len(live))
	type keyState struct {
		ranked  []*peer
		waiting int // requests in flight that carry the key
		done    bool
	}
	state := make(map[string]*keyState, len(keys))
	var order []string
	for _, k := range keys {
		if _, dup := state[k]; !dup {
			state[k] = &keyState{ranked: rankBy(k, live, func(p *peer) string { return p.url })}
			order = append(order, k)
		}
	}
	defer func() { c.misses.Add(uint64(len(order) - len(hits))) }()
	if rounds == 0 {
		return hits
	}
	// Bound the whole lookup: worst case is every round timing out in
	// sequence, and the answer to "peers are slow" is local simulation,
	// not waiting. Requests still out when it returns are cancelled, and
	// waited for.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(rounds)*c.cfg.Timeout+c.tm.hedge)
	defer cancel()

	ch := make(chan answer)
	inflight := make([]int, rounds) // requests in flight per round
	send := func(p *peer, round int, ks []string) {
		inflight[round]++
		for _, k := range ks {
			state[k].waiting++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := c.ask(ctx, p, path, ks, decode)
			a.round = round
			select {
			case ch <- a:
			case <-ctx.Done():
			}
		}()
	}
	round := -1
	var hedge <-chan time.Time
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	// next starts the next round and reports how many of its keys still
	// wait on an earlier request (hedged keys).
	next := func() (hedged int) {
		round++
		byPeer := make(map[*peer][]string)
		var peers []*peer
		for _, k := range order {
			s := state[k]
			if s.done {
				continue
			}
			if s.waiting > 0 {
				hedged++
			}
			p := s.ranked[round]
			if byPeer[p] == nil {
				peers = append(peers, p)
			}
			byPeer[p] = append(byPeer[p], k)
		}
		for _, p := range peers {
			send(p, round, byPeer[p])
		}
		hedge = nil
		if round+1 < rounds {
			t := time.NewTimer(c.tm.hedge)
			timers = append(timers, t)
			hedge = t.C
		}
		return hedged
	}
	next()
	for pending := true; pending && len(hits) < len(order); {
		select {
		case a := <-ch:
			inflight[a.round]--
			for i, k := range a.keys {
				s := state[k]
				s.waiting--
				if i < len(a.vals) && a.vals[i] != nil && !s.done {
					s.done = true
					hits[k] = Hit{Val: a.vals[i], Peer: a.p.url}
					c.hits.Add(1)
				}
			}
			if rest := a.keys[len(a.vals):]; len(rest) > 0 && len(a.vals) > 0 {
				send(a.p, a.round, rest) // split at the body ceiling, not truncated
			}
			if inflight[round] == 0 && round+1 < rounds {
				next() // the round has every verdict: fall through
			}
			pending = slices.ContainsFunc(inflight, func(n int) bool { return n > 0 })
		case <-hedge:
			c.hedges.Add(uint64(next()))
		case <-ctx.Done():
			pending = false
		}
	}
	return hits
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

// Call sends one short request through Do, bounded by callTimeout, and
// decodes the JSON body of a 2xx answer into out (nil: discarded). Any
// other status is an error.
func (c *Client) Call(ctx context.Context, peerURL, method, path string, header http.Header, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	resp, err := c.Do(ctx, peerURL, method, path, header, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ask sends one lookup request for keys to p and returns its verdict. A
// request that fails — no response, an HTTP error, a malformed answer —
// is one strike and answers no key. A response answers a prefix of keys
// (all of them unless it reached maxBodyBytes); an entry decode rejects
// is a miss for its key, and any such entry makes the response one
// strike.
func (c *Client) ask(ctx context.Context, p *peer, path string, keys []string, decode func(key string, body []byte) (any, error)) answer {
	a := answer{p: p, keys: keys}
	fail := func(why string) answer { c.strike(ctx, p, why); return a }
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	resp, err := c.send(rctx, p, http.MethodPost, path, nil, []byte(strings.Join(keys, "\n")))
	if err != nil {
		return a
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Sprintf("HTTP %d", resp.StatusCode))
	}
	sizes, total, err := parseSizes(resp.Header.Get(sizesHeader), len(keys))
	if err != nil {
		return fail("malformed response: " + err.Error())
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return fail(err.Error())
	}
	if len(body) != total {
		return fail(fmt.Sprintf("malformed response: %d body bytes, sizes sum to %d", len(body), total))
	}
	vals := make([]any, len(sizes))
	var rejected error
	for i, off := 0, 0; i < len(sizes); off, i = off+sizes[i], i+1 {
		if sizes[i] == 0 {
			p.misses.Add(1)
			continue
		}
		v, err := decode(keys[i], body[off:off+sizes[i]:off+sizes[i]])
		if err != nil {
			rejected = cmp.Or(rejected, err)
			continue
		}
		vals[i] = v
		p.hits.Add(1)
	}
	if rejected != nil {
		c.strike(ctx, p, "corrupt response: "+rejected.Error())
	} else {
		p.ok()
	}
	a.vals = vals
	return a
}

// parseSizes reads a sizesHeader value for a request that asked n keys:
// one to n non-negative sizes, and their sum.
func parseSizes(h string, n int) ([]int, int, error) {
	fields := strings.Split(h, ",")
	if h == "" || len(fields) > n {
		return nil, 0, fmt.Errorf("%d sizes for %d keys", len(fields), n)
	}
	sizes, total := make([]int, len(fields)), 0
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 || v > maxBodyBytes {
			return nil, 0, fmt.Errorf("bad size %q", f)
		}
		sizes[i], total = v, total+v
	}
	return sizes, total, nil
}

// ServeLookup is the peer's side of Lookup: it answers one request whose
// body lists keys, one per line, with the bytes get holds for each,
// back to back, and their sizes in request order in sizesHeader (0 for
// a key get does not hold). A one-key request for a held key is answered
// with exactly get's bytes. The body stays under maxBodyBytes by
// answering fewer keys — the asker sends the rest again — so an entry is
// never cut; an entry over the ceiling on its own is a miss. A request
// body over the ceiling is read up to its last whole key there.
func ServeLookup(w http.ResponseWriter, r *http.Request, get func(key string) ([]byte, bool)) {
	serveLookup(w, r, get, maxBodyBytes)
}

func serveLookup(w http.ResponseWriter, r *http.Request, get func(key string) ([]byte, bool), ceiling int) {
	req, err := io.ReadAll(io.LimitReader(r.Body, int64(ceiling)+1))
	if err != nil {
		http.Error(w, "lookup: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req) > ceiling {
		req = req[:bytes.LastIndexByte(req[:ceiling], '\n')+1]
	}
	var (
		sizes []byte
		parts [][]byte
		total int
	)
	for i, key := range strings.Split(strings.TrimSuffix(string(req), "\n"), "\n") {
		b, _ := get(key)
		if total+len(b) > ceiling {
			if i > 0 {
				break
			}
			b = nil
		}
		if i > 0 {
			sizes = append(sizes, ',')
		}
		sizes = strconv.AppendInt(sizes, int64(len(b)), 10)
		parts = append(parts, b)
		total += len(b)
	}
	h := w.Header()
	h.Set(sizesHeader, string(sizes))
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(total))
	for _, b := range parts {
		w.Write(b)
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
