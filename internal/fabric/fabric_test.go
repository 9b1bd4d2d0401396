package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastCfg keeps the lookup timeout short and the prober off: tests
// drive state transitions explicitly.
func fastCfg(peers ...string) Config {
	return Config{Peers: peers, Timeout: 500 * time.Millisecond, ProbeInterval: -1}
}

// fastTiming keeps the hedge and breaker clocks short so breaker/hedge
// tests run in milliseconds.
var fastTiming = timing{hedge: 10 * time.Millisecond, backoff: 30 * time.Millisecond, maxBackoff: 200 * time.Millisecond}

// lookupPath is the route the tests' peers serve lookups on.
const lookupPath = "/cache/lookup"

// cacheServer serves lookups from a fixed key → body map, counting
// requests.
func cacheServer(t *testing.T, entries map[string]string) (*httptest.Server, *atomic.Int64) {
	return faultyCacheServer(t, entries, "", 0, nil)
}

// faultyCacheServer is cacheServer behind a fault on every request:
// "down" hijacks the connection and closes it unanswered, "slow" holds
// the answer for delay, "corrupt" flips the middle byte of the body, and
// "cut" sends the status, the sizes header and half the body, then
// closes the connection. spoiled (nil without a fault) counts the
// faulted requests.
func faultyCacheServer(t *testing.T, entries map[string]string, fault string, delay time.Duration, spoiled *atomic.Int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var reqs atomic.Int64
	get := func(key string) ([]byte, bool) {
		b, ok := entries[key]
		return []byte(b), ok
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		if fault != "" {
			spoiled.Add(1)
		}
		switch fault {
		case "down":
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		case "slow":
			readAll(r) // a server notices its client leave only once it has read the request
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		case "corrupt", "cut":
			rec := httptest.NewRecorder()
			ServeLookup(rec, r, get)
			body := rec.Body.Bytes()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			if fault == "cut" {
				w.Write(body[:len(body)/2])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler) // the server closes the connection
			}
			if len(body) > 0 {
				body[len(body)/2] ^= 0xff
			}
			w.Write(body)
			return
		}
		ServeLookup(w, r, get)
	}))
	t.Cleanup(srv.Close)
	return srv, &reqs
}

// serveAll answers every key a lookup asks with body.
func serveAll(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ServeLookup(w, r, func(string) ([]byte, bool) { return []byte(body), true })
	}
}

// peerStatus is the Snapshot entry of the peer at url.
func peerStatus(c *Client, url string) PeerStatus {
	for _, ps := range c.Snapshot() {
		if ps.URL == url {
			return ps
		}
	}
	return PeerStatus{}
}

// lookup asks c for one key, accepting any body unless vet (may be nil)
// rejects it, and returns the raw body.
func lookup(c *Client, key string, vet func(body []byte) error) ([]byte, string, bool) {
	return lookupCtx(context.Background(), c, key, vet)
}

func lookupCtx(ctx context.Context, c *Client, key string, vet func(body []byte) error) ([]byte, string, bool) {
	h, ok := c.Lookup(ctx, lookupPath, []string{key}, func(k string, body []byte) (any, error) {
		if k != key {
			return nil, fmt.Errorf("entry for %q, asked %q", k, key)
		}
		if vet != nil {
			if err := vet(body); err != nil {
				return nil, err
			}
		}
		return body, nil
	})[key]
	body, _ := h.Val.([]byte)
	return body, h.Peer, ok
}

func TestNilClientMisses(t *testing.T) {
	var c *Client
	if _, _, ok := lookup(c, "k", nil); ok {
		t.Fatal("nil client returned a hit")
	}
	if c.HasPeer("http://a") || c.Snapshot() != nil {
		t.Fatal("nil client reported peers")
	}
	c.Close() // must not panic
	if New(Config{}) != nil {
		t.Fatal("New with no peers should return nil")
	}
}

func TestLookupHitAndMiss(t *testing.T) {
	srv, _ := cacheServer(t, map[string]string{"k1": "body-1"})
	c := newClient(fastCfg(srv.URL), fastTiming)
	defer c.Close()

	body, url, ok := lookup(c, "k1", nil)
	if !ok || string(body) != "body-1" || url != srv.URL {
		t.Fatalf("hit = %q %q %v, want body-1 from %s", body, url, ok, srv.URL)
	}
	if _, _, ok := lookup(c, "absent", nil); ok {
		t.Fatal("404 key returned a hit")
	}
	if ps := c.Snapshot()[0]; ps.Hits != 1 || ps.Misses != 1 || ps.Errors != 0 {
		t.Fatalf("peer = %+v, want 1 hit, 1 miss, 0 errors", ps)
	}
	// A 404 is an authoritative healthy miss, never breaker food.
	if ps := c.Snapshot()[0]; ps.State != "ok" || ps.ConsecutiveFails != 0 {
		t.Fatalf("peer state after 404 = %+v, want closed breaker", ps)
	}
}

func TestDownPeerFallsThroughToNext(t *testing.T) {
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // connection refused from here on
	up, _ := cacheServer(t, map[string]string{"k1": "body-1"})

	c := newClient(fastCfg(down.URL, up.URL), fastTiming)
	defer c.Close()
	body, url, ok := lookup(c, "k1", nil)
	if !ok || string(body) != "body-1" || url != up.URL {
		t.Fatalf("lookup with one dead peer = %q %q %v, want fallthrough hit", body, url, ok)
	}
	if ps := peerStatus(c, up.URL); ps.Hits != 1 {
		t.Fatalf("live peer = %+v, want the hit recorded", ps)
	}
}

func TestValidateRejectionIsAPeerFailure(t *testing.T) {
	srv, _ := cacheServer(t, map[string]string{"k1": "garbage"})
	c := newClient(fastCfg(srv.URL), fastTiming)
	defer c.Close()
	reject := func([]byte) error { return fmt.Errorf("checksum mismatch") }
	if _, _, ok := lookup(c, "k1", reject); ok {
		t.Fatal("corrupt body passed validation")
	}
	if st, ps := c.Stats(), c.Snapshot()[0]; st.Errors == 0 || ps.Hits != 0 {
		t.Fatalf("stats = %+v, peer = %+v, want the rejection counted as an error", st, ps)
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	c := newClient(fastCfg(down.URL), fastTiming)
	defer c.Close()

	// DefaultBreakerOpens consecutive failures open the breaker.
	for i := 0; i < DefaultBreakerOpens; i++ {
		if _, _, ok := lookup(c, "k", nil); ok {
			t.Fatal("dead peer returned a hit")
		}
	}
	if ps := c.Snapshot()[0]; ps.State != "open" {
		t.Fatalf("peer state after %d failures = %q, want open", DefaultBreakerOpens, ps.State)
	}
	// While open, lookups don't even dial: request count stays flat.
	errsBefore := c.Stats().Errors
	if _, _, ok := lookup(c, "k", nil); ok {
		t.Fatal("open breaker returned a hit")
	}
	if errs := c.Stats().Errors; errs != errsBefore {
		t.Fatalf("lookup through an open breaker dialed the peer (%d -> %d errors)", errsBefore, errs)
	}

	// Past the backoff the breaker half-opens and admits a trial.
	time.Sleep(2 * c.tm.backoff)
	if ps := c.Snapshot()[0]; ps.State != "half-open" {
		t.Fatalf("peer state past backoff = %q, want half-open", ps.State)
	}

	// A recovered peer closes the breaker on the next successful trial.
	revived, _ := cacheServer(t, map[string]string{"k": "body"})
	c.peers[0].url = revived.URL // swap the address: same peer, now alive
	time.Sleep(2 * c.tm.backoff)
	if _, _, ok := lookup(c, "k", nil); !ok {
		t.Fatal("half-open trial against a live peer missed")
	}
	if ps := c.Snapshot()[0]; ps.State != "ok" || ps.ConsecutiveFails != 0 {
		t.Fatalf("peer state after successful trial = %+v, want closed", ps)
	}
}

func TestHedgedLookupWinsOnSlowPrimary(t *testing.T) {
	// Both servers start before the one client is built, so the ranking
	// the key is chosen by is the ranking the lookup uses. The fast peer
	// answers any key: whichever key ranks the slow peer first is served.
	fast := httptest.NewServer(serveAll("fast-body"))
	defer fast.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		serveAll("slow-body")(w, r)
	}))
	defer slow.Close()
	c := newClient(fastCfg(slow.URL, fast.URL), fastTiming)
	defer c.Close()

	key := ""
	for i := 0; i < 64 && key == ""; i++ {
		if k := fmt.Sprintf("khedge-%d", i); rankedURLs(c, k)[0] == slow.URL {
			key = k
		}
	}
	if key == "" {
		t.Fatal("could not find a key ranking the slow peer first")
	}
	body, url, ok := lookup(c, key, nil)
	if !ok || string(body) != "fast-body" || url != fast.URL {
		t.Fatalf("hedged lookup = %q from %s %v, want fast-body from the hedge", body, url, ok)
	}
	if c.Stats().Hedges == 0 {
		t.Fatal("no hedge recorded despite slow primary")
	}
}

func TestRendezvousRankIsStableAndSpread(t *testing.T) {
	c := newClient(fastCfg("http://a", "http://b", "http://c"), fastTiming)
	defer c.Close()
	// Stable: same key, same order, every time.
	for i := 0; i < 10; i++ {
		a := rankedURLs(c, "some-key")
		b := rankedURLs(c, "some-key")
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rank not deterministic: %v vs %v", a, b)
		}
	}
	// Agreement is order-independent: a client configured with the peers
	// in a different order ranks each key identically.
	c2 := newClient(fastCfg("http://c", "http://a", "http://b"), fastTiming)
	defer c2.Close()
	first := map[string]int{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%d", i)
		r1, r2 := rankedURLs(c, k), rankedURLs(c2, k)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("clients disagree on rank for %s: %v vs %v", k, r1, r2)
		}
		first[r1[0]]++
	}
	// Spread: no peer owns everything.
	for u, n := range first {
		if n == 64 {
			t.Fatalf("peer %s ranked first for all keys — not spreading", u)
		}
	}
}

// TestInjectedPeerFaultsResolveToMisses: a peer that hangs up, sends a
// corrupted body or stops mid-body costs a miss and a peer error, never a
// wrong answer — the corrupt body reaches the caller's decode and is
// rejected there; a cut one is one strike and answers no key, and the key
// falls through to the next-ranked peer. A slow peer still under the
// timeout answers late.
func TestInjectedPeerFaultsResolveToMisses(t *testing.T) {
	entries := map[string]string{"k1": "body-1"}
	for _, fault := range []string{"down", "corrupt", "cut"} {
		var spoiled atomic.Int64
		srv, _ := faultyCacheServer(t, entries, fault, 0, &spoiled)
		var events []string
		cfg := fastCfg(srv.URL)
		cfg.Event = func(kind, detail string) { events = append(events, kind+": "+detail) }
		vet := func(body []byte) error {
			if string(body) != "body-1" {
				return fmt.Errorf("corrupt")
			}
			return nil
		}
		c := newClient(cfg, fastTiming)
		if _, _, ok := lookup(c, "k1", vet); ok {
			t.Fatalf("%s: injected fault still produced a hit", fault)
		}
		c.Close()
		if st := c.Stats(); st.Errors == 0 || spoiled.Load() == 0 {
			t.Fatalf("%s: %d requests spoiled, fault not counted as error: %+v", fault, spoiled.Load(), st)
		}
		if fault == "corrupt" && (len(events) == 0 || !strings.Contains(events[0], "corrupt response")) {
			t.Fatalf("corrupt body: events %q, want a corrupt response peer-error", events)
		}
		// The key's miss is the hit map above, which lacks it.
		if st, ps := c.Stats(), c.Snapshot()[0]; fault == "cut" && (st.Errors != 1 || ps.Hits != 0 ||
			len(events) != 1 || !strings.Contains(events[0], "unexpected EOF")) {
			t.Fatalf("cut body: stats %+v, peer %+v, events %q, want one strike, no hit and an unexpected EOF peer-error", st, ps, events)
		}
	}
	// Behind a cut answer, the next-ranked peer answers the key: one
	// strike, one hit, and the key asked of each peer once.
	var cut atomic.Int64
	cutSrv, _ := faultyCacheServer(t, entries, "cut", 0, &cut)
	upSrv, upReqs := cacheServer(t, entries)
	fall := newClient(fastCfg(cutSrv.URL, upSrv.URL), fastTiming)
	defer fall.Close()
	key := "k1"
	for i := 2; rankedURLs(fall, key)[0] != cutSrv.URL; i++ {
		key = fmt.Sprintf("k%d", i)
	}
	entries[key] = "body-1"
	if body, url, ok := lookup(fall, key, nil); !ok || string(body) != "body-1" || url != upSrv.URL {
		t.Fatalf("lookup behind a cut answer = %q %q %v, want body-1 from %s", body, url, ok, upSrv.URL)
	}
	if st, ps := fall.Stats(), peerStatus(fall, upSrv.URL); st.Errors != 1 || ps.Hits != 1 || cut.Load() != 1 || upReqs.Load() != 1 {
		t.Fatalf("stats %+v, clean peer %+v, %d cut and %d clean requests, want one strike, one hit, one request each", st, ps, cut.Load(), upReqs.Load())
	}
	// A slow peer under the timeout delays but still answers.
	var spoiled atomic.Int64
	srv, _ := faultyCacheServer(t, entries, "slow", 20*time.Millisecond, &spoiled)
	c := newClient(fastCfg(srv.URL), fastTiming)
	defer c.Close()
	start := time.Now()
	body, _, ok := lookup(c, "k1", nil)
	if !ok || string(body) != "body-1" || spoiled.Load() != 1 || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("slow peer under the timeout = %q %v after %v, want a delayed hit", body, ok, time.Since(start))
	}
}

// TestProbeClosesBreakerOnRecovery covers both directions of the prober's
// verdict, with no lookup ever touching the peer: DefaultBreakerOpens
// unanswered probes open its breaker, and the first answered one closes it.
func TestProbeClosesBreakerOnRecovery(t *testing.T) {
	var frozen atomic.Bool
	frozen.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if frozen.Load() {
			<-r.Context().Done() // accepts the connection, never answers
		}
	}))
	defer srv.Close()
	cfg := fastCfg(srv.URL)
	cfg.Timeout = 20 * time.Millisecond
	cfg.ProbeInterval = 10 * time.Millisecond
	c := newClient(cfg, fastTiming)
	defer c.Close()

	waitPeer(t, c, "probes to open the breaker", func(ps PeerStatus) bool {
		return ps.State == "open" && !ps.Healthy && ps.ConsecutiveFails >= DefaultBreakerOpens
	})
	if ps := c.Snapshot()[0]; ps.Hits+ps.Misses != 0 {
		t.Fatalf("setup: a lookup ran (%+v); only probes may touch the peer here", ps)
	}
	// Any /healthz response counts as reachable.
	frozen.Store(false)
	waitPeer(t, c, "a probe to close the breaker", func(ps PeerStatus) bool {
		return ps.State == "ok" && ps.Healthy && ps.ConsecutiveFails == 0
	})
}

// waitPeer polls c's first peer until ok accepts its status.
func waitPeer(t *testing.T, c *Client, what string, ok func(PeerStatus) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(c.Snapshot()[0]); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, c.Snapshot()[0])
		}
	}
}

// readAll reads r's body ahead of its handler, which still reads it:
// only once the body is read does the server watch the connection, so
// that r's context ends when its client goes away.
func readAll(r *http.Request) {
	b, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(b))
}

// parkingServer answers nothing: each request signals entered, parks until
// its client goes away, then signals left.
func parkingServer(t *testing.T) (srv *httptest.Server, entered, left chan struct{}) {
	t.Helper()
	entered, left = make(chan struct{}, 16), make(chan struct{}, 16)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		readAll(r)
		entered <- struct{}{}
		<-r.Context().Done()
		left <- struct{}{}
	}))
	t.Cleanup(srv.Close)
	return srv, entered, left
}

// TestCallerCancellationIsNotAPeerFailure pins the strike rule proxied
// /progress streams and hedged lookups depend on: a request its caller
// cancelled says nothing about the peer, a deadline that expired does.
func TestCallerCancellationIsNotAPeerFailure(t *testing.T) {
	slow, entered, left := parkingServer(t)
	fast := httptest.NewServer(serveAll("fast-body"))
	defer fast.Close()
	c := newClient(fastCfg(slow.URL, fast.URL), fastTiming)
	defer c.Close()
	slowPeer := func() PeerStatus { return c.Snapshot()[0] }
	clean := func(after string) {
		t.Helper()
		if ps := slowPeer(); ps.State != "ok" || ps.ConsecutiveFails != 0 || ps.Errors != 0 {
			t.Fatalf("after %s: slow peer = %+v, want state ok, 0 consecutive fails, 0 errors", after, ps)
		}
	}

	// Three addressed requests cancelled mid-flight.
	for i := 0; i < DefaultBreakerOpens; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := c.Do(ctx, slow.URL, http.MethodGet, "/sweeps/sweep-1/progress", nil, nil)
			errc <- err
		}()
		<-entered
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Do: err = %v, want context.Canceled", err)
		}
		<-left
	}
	clean("three cancelled Do requests")

	// Three hedged lookups whose slow primary loses and is cancelled.
	for i, n := 0, 0; n < DefaultBreakerOpens; i++ {
		key := fmt.Sprintf("khedge-%d", i)
		if rankedURLs(c, key)[0] != slow.URL {
			continue
		}
		n++
		if body, url, ok := lookup(c, key, nil); !ok || string(body) != "fast-body" || url != fast.URL {
			t.Fatalf("hedged lookup = %q from %s %v, want fast-body from the hedge", body, url, ok)
		}
		<-entered
		<-left // the loser's request is over before the peer is inspected
	}
	if c.Stats().Hedges != DefaultBreakerOpens {
		t.Fatalf("hedges = %d, want %d", c.Stats().Hedges, DefaultBreakerOpens)
	}
	clean("three hedged lookups whose primary lost")

	// The same handler under a deadline: three strikes, and the open
	// breaker then answers without dialling.
	for i := 0; i < DefaultBreakerOpens; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := c.Do(ctx, slow.URL, http.MethodGet, "/sweeps", nil, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Do past its deadline: err = %v, want context.DeadlineExceeded", err)
		}
		<-entered
		<-left
	}
	if ps := slowPeer(); ps.State != "open" || ps.Errors != DefaultBreakerOpens {
		t.Fatalf("after three expired deadlines: slow peer = %+v, want open with %d errors", ps, DefaultBreakerOpens)
	}
	if _, err := c.Do(context.Background(), slow.URL, http.MethodGet, "/sweeps", nil, nil); !errors.Is(err, errPeerOpen) {
		t.Fatalf("Do through an open breaker: err = %v, want errPeerOpen", err)
	}
	select {
	case <-entered:
		t.Fatal("Do through an open breaker dialled the peer")
	default:
	}
	if _, err := c.Do(context.Background(), "http://127.0.0.1:1", http.MethodGet, "/sweeps", nil, nil); err == nil {
		t.Fatal("Do to an unconfigured URL did not fail")
	}
}

// rankedURLs is the order in which c consults its peers for key.
func rankedURLs(c *Client, key string) []string {
	all := make([]string, len(c.peers))
	for i, p := range c.peers {
		all[i] = p.url
	}
	return Rank(key, all)
}

// TestHalfOpenAdmitsOneTrial: past its backoff a breaker lets exactly one
// Do through as the trial; every concurrent Do answers errPeerOpen without
// dialling. The trial's slot is released on every verdict — a response
// closes the breaker, an expired deadline strikes and re-opens it, and a
// caller's cancellation leaves it half-open for the next trial.
func TestHalfOpenAdmitsOneTrial(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name      string
		timeout   time.Duration // the callers' deadline (0: none)
		end       func(release func(), cancel context.CancelFunc)
		wantErr   error // the trial's error (nil: a response)
		wantState string
	}{
		{"response closes the breaker", 0,
			func(release func(), _ context.CancelFunc) { release() }, nil, "ok"},
		{"expired deadline strikes", 300 * time.Millisecond,
			func(func(), context.CancelFunc) {}, context.DeadlineExceeded, "open"},
		{"caller cancellation is no verdict on the peer", 0,
			func(_ func(), cancel context.CancelFunc) { cancel() }, context.Canceled, "half-open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var arrivals atomic.Int64
			arrived, released := make(chan struct{}, n), make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				arrivals.Add(1)
				arrived <- struct{}{}
				select {
				case <-released:
				case <-r.Context().Done():
				}
			}))
			defer srv.Close()
			c := newClient(fastCfg(srv.URL), fastTiming)
			defer c.Close()
			p := c.peers[0]
			p.mu.Lock() // open, past its backoff; a strike re-opens it for an hour
			p.fails, p.openUntil, p.backoff = DefaultBreakerOpens, time.Now().Add(-time.Millisecond), time.Hour
			p.mu.Unlock()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			results := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() {
					resp, err := c.Do(ctx, srv.URL, http.MethodGet, "/sweeps", nil, nil)
					if err == nil {
						resp.Body.Close()
					}
					results <- err
				}()
			}
			<-arrived
			for i := 0; i < n-1; i++ {
				select {
				case err := <-results:
					if !errors.Is(err, errPeerOpen) {
						t.Fatalf("a concurrent Do beside the trial: err = %v, want errPeerOpen", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("concurrent Do calls did not answer errPeerOpen while the trial was parked")
				}
			}
			tc.end(func() { close(released) }, cancel)
			if err := <-results; !errors.Is(err, tc.wantErr) {
				t.Fatalf("trial: err = %v, want %v", err, tc.wantErr)
			}
			if got := arrivals.Load(); got != 1 {
				t.Errorf("%d requests reached the peer, want 1", got)
			}
			p.mu.Lock()
			trial := p.trial
			p.mu.Unlock()
			if trial {
				t.Error("the trial's slot was not released")
			}
			if ps := c.Snapshot()[0]; ps.State != tc.wantState {
				t.Errorf("breaker after the trial = %q, want %q", ps.State, tc.wantState)
			}
		})
	}
}

// TestHalfOpenLookupAdmitsOneTrial is the Lookup half of the one-trial
// rule: past its backoff a breaker lets exactly one lookup ask the peer,
// and every concurrent lookup misses without dialling. The trial's slot is
// released once its fetch has a verdict — a hit closes the breaker, a
// request past the lookup timeout strikes and re-opens it, and a caller's
// cancellation leaves it half-open for the next trial.
func TestHalfOpenLookupAdmitsOneTrial(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name      string
		timeout   time.Duration // the client's per-request timeout
		end       func(release func(), cancel context.CancelFunc)
		wantHit   bool
		wantState string
	}{
		{"hit closes the breaker", time.Minute,
			func(release func(), _ context.CancelFunc) { release() }, true, "ok"},
		{"timeout strikes", 300 * time.Millisecond,
			func(func(), context.CancelFunc) {}, false, "open"},
		{"caller cancellation is no verdict on the peer", time.Minute,
			func(_ func(), cancel context.CancelFunc) { cancel() }, false, "half-open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var arrivals atomic.Int64
			arrived, left, released := make(chan struct{}, n), make(chan struct{}, n), make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				arrivals.Add(1)
				readAll(r)
				arrived <- struct{}{}
				defer func() { left <- struct{}{} }()
				select {
				case <-released:
					serveAll("body")(w, r)
				case <-r.Context().Done():
				}
			}))
			defer srv.Close()
			cfg := fastCfg(srv.URL)
			cfg.Timeout = tc.timeout
			c := newClient(cfg, fastTiming)
			defer c.Close()
			p := c.peers[0]
			p.mu.Lock() // open, past its backoff; a strike re-opens it for an hour
			p.fails, p.openUntil, p.backoff = DefaultBreakerOpens, time.Now().Add(-time.Millisecond), time.Hour
			p.mu.Unlock()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hits := make(chan bool, n)
			for i := 0; i < n; i++ {
				go func() {
					_, _, ok := lookupCtx(ctx, c, "k", nil)
					hits <- ok
				}()
			}
			<-arrived
			for i := 0; i < n-1; i++ {
				select {
				case ok := <-hits:
					if ok {
						t.Fatal("a lookup beside the trial hit")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("concurrent lookups did not miss while the trial was parked")
				}
			}
			tc.end(func() { close(released) }, cancel)
			if ok := <-hits; ok != tc.wantHit {
				t.Fatalf("trial hit = %v, want %v", ok, tc.wantHit)
			}
			<-left
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				p.mu.Lock()
				trial := p.trial
				p.mu.Unlock()
				if !trial {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the trial's slot was not released")
				}
			}
			if got := arrivals.Load(); got != 1 {
				t.Errorf("%d requests reached the peer, want 1", got)
			}
			if ps := c.Snapshot()[0]; ps.State != tc.wantState {
				t.Errorf("breaker after the trial = %q, want %q", ps.State, tc.wantState)
			}
		})
	}
}

// countingServer serves lookups from entries, recording the keys of each
// request it answers.
func countingServer(t *testing.T, entries map[string]string) (*httptest.Server, func() [][]string) {
	t.Helper()
	var mu sync.Mutex
	var asked [][]string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		readAll(r)
		b, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(b))
		mu.Lock()
		asked = append(asked, strings.Split(string(b), "\n"))
		mu.Unlock()
		ServeLookup(w, r, func(key string) ([]byte, bool) {
			v, ok := entries[key]
			return []byte(v), ok
		})
	}))
	t.Cleanup(srv.Close)
	return srv, func() [][]string {
		mu.Lock()
		defer mu.Unlock()
		return append([][]string(nil), asked...)
	}
}

// TestLookupSendsOneRequestPerPeerPerRound: a lookup of many keys costs
// each peer at most one request per round. Round 0 asks every key of
// its first-ranked peer; a key that peer misses falls through to its
// second-ranked peer in round 1, and no key is asked of a third.
func TestLookupSendsOneRequestPerPeerPerRound(t *testing.T) {
	const n = 40
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i))
	}
	// Peer 0 holds every key; the others hold none.
	srvs := make([]*httptest.Server, 3)
	asked := make([]func() [][]string, 3)
	held := map[string]string{}
	for _, k := range keys {
		held[k] = "body-" + k
	}
	srvs[0], asked[0] = countingServer(t, held)
	srvs[1], asked[1] = countingServer(t, nil)
	srvs[2], asked[2] = countingServer(t, nil)
	c := newClient(fastCfg(srvs[0].URL, srvs[1].URL, srvs[2].URL), timing{hedge: time.Minute, backoff: time.Second, maxBackoff: time.Second})
	defer c.Close()

	hits := c.Lookup(context.Background(), lookupPath, keys, func(k string, body []byte) (any, error) { return string(body), nil })
	times := map[string]map[string]int{} // peer URL → key → times asked
	for i, srv := range srvs {
		reqs := asked[i]()
		if len(reqs) > defaultMaxFanout {
			t.Errorf("peer %d got %d requests, want at most one per round (%d)", i, len(reqs), defaultMaxFanout)
		}
		times[srv.URL] = map[string]int{}
		for _, req := range reqs {
			for _, k := range req {
				times[srv.URL][k]++
			}
		}
	}
	misses := 0
	for _, k := range keys {
		// Asked of its ranked peers, once each, until peer 0 or the
		// fan-out: a hit exactly when peer 0 is within it.
		rank := rankedURLs(c, k)
		within := slices.Index(rank, srvs[0].URL) < defaultMaxFanout
		if h, ok := hits[k]; ok != within || ok && (h.Val != "body-"+k || h.Peer != srvs[0].URL) {
			t.Errorf("%s (ranked %v): hit %+v %v, want a hit from peer 0: %v", k, rank, h, ok, within)
		}
		if !within {
			misses++
		}
		for i, u := range rank {
			want := 0
			if i < defaultMaxFanout && !slices.Contains(rank[:i], srvs[0].URL) {
				want = 1
			}
			if got := times[u][k]; got != want {
				t.Errorf("%s (ranked %v): asked of %s %d times, want %d", k, rank, u, got, want)
			}
		}
	}
	if misses == 0 || misses == n {
		t.Fatalf("%d of %d keys rank peer 0 past the fan-out; the test needs some of each", misses, n)
	}
	if st := c.Stats(); len(hits) != n-misses || peerStatus(c, srvs[0].URL).Hits != uint64(n-misses) || st.Errors != 0 || st.Hedges != 0 {
		t.Errorf("%d hits (%d from peer 0), stats = %+v, want %d hits, %d misses and nothing else",
			len(hits), peerStatus(c, srvs[0].URL).Hits, st, n-misses, misses)
	}
	for _, ps := range c.Snapshot() {
		if ps.State != "ok" {
			t.Errorf("peer %s = %+v after authoritative misses, want ok", ps.URL, ps)
		}
	}
}

// TestCorruptEntryInBatchIsOneMissOneStrike: an entry decode rejects
// costs its own key — which falls through to the next-ranked peer —
// and one strike against the peer that sent it; the batch's other
// entries are hits.
func TestCorruptEntryInBatchIsOneMissOneStrike(t *testing.T) {
	// Both peers start before the client is built; the keys are chosen
	// to rank the bad peer first, so it is asked for all three at once.
	// Each peer answers any key with its good entry, except the bad
	// peer's entry for the key it rots.
	var rotten atomic.Pointer[string]
	serve := func(rots bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ServeLookup(w, r, func(k string) ([]byte, bool) {
				if rots && k == *rotten.Load() {
					return []byte("rotten"), true
				}
				return []byte("good-" + k), true
			})
		}
	}
	bad := httptest.NewServer(serve(true))
	defer bad.Close()
	good := httptest.NewServer(serve(false))
	defer good.Close()
	var events []string
	cfg := fastCfg(bad.URL, good.URL)
	cfg.Event = func(kind, detail string) { events = append(events, kind+": "+detail) }
	c := newClient(cfg, timing{hedge: time.Minute, backoff: time.Second, maxBackoff: time.Second})
	defer c.Close()
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("k%d", i); rankedURLs(c, k)[0] == bad.URL {
			keys = append(keys, k)
		}
	}
	rotten.Store(&keys[1])
	vet := func(k string, body []byte) (any, error) {
		if string(body) != "good-"+k {
			return nil, fmt.Errorf("checksum mismatch")
		}
		return string(body), nil
	}
	hits := c.Lookup(context.Background(), lookupPath, keys, vet)
	for _, k := range keys {
		if hits[k].Val != "good-"+k {
			t.Errorf("%s: %+v, want good-%s", k, hits[k], k)
		}
	}
	byURL := map[string]PeerStatus{}
	for _, ps := range c.Snapshot() {
		byURL[ps.URL] = ps
	}
	if ps := byURL[bad.URL]; ps.Errors != 1 || ps.ConsecutiveFails != 1 || ps.State != "ok" {
		t.Errorf("bad peer = %+v, want one strike, breaker closed", ps)
	}
	if st := c.Stats(); len(hits) != 3 || st.Errors != 1 {
		t.Errorf("%d hits, stats = %+v, want 3 hits, 0 misses, 1 error", len(hits), st)
	}
	if len(events) != 1 || !strings.Contains(events[0], "corrupt response: checksum mismatch") {
		t.Errorf("events %q, want one corrupt response", events)
	}
}

// TestOversizedResponseIsSplit: a peer whose answer would pass the body
// ceiling answers the keys that fit and the asker sends it the rest, so
// every entry arrives whole and no response passes the ceiling.
func TestOversizedResponseIsSplit(t *testing.T) {
	const ceiling = 25
	entries := map[string]string{}
	var keys []string
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		keys = append(keys, k)
		entries[k] = fmt.Sprintf("entry-%04d", i) // 10 bytes: two fit
	}
	var mu sync.Mutex
	var bodies []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		serveLookup(rec, r, func(k string) ([]byte, bool) {
			v, ok := entries[k]
			return []byte(v), ok
		}, ceiling)
		mu.Lock()
		bodies = append(bodies, rec.Body.Len())
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	c := newClient(fastCfg(srv.URL), fastTiming)
	defer c.Close()
	hits := c.Lookup(context.Background(), lookupPath, keys, func(k string, body []byte) (any, error) {
		if string(body) != entries[k] {
			return nil, fmt.Errorf("%s: got %q", k, body)
		}
		return string(body), nil
	})
	if len(hits) != len(keys) {
		t.Fatalf("%d of %d keys found: %+v", len(hits), len(keys), hits)
	}
	if want := []int{20, 20, 10}; !reflect.DeepEqual(bodies, want) {
		t.Errorf("response bodies %v bytes, want %v (split at the %d-byte ceiling)", bodies, want, ceiling)
	}
	if st, ps := c.Stats(), c.Snapshot()[0]; st.Errors != 0 || ps.Hits != 5 {
		t.Errorf("stats = %+v, peer = %+v, want 5 hits, no errors", st, ps)
	}
}
