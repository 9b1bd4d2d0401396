package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// cacheServer serves /cache/{key} from a fixed map, counting requests.
func cacheServer(t *testing.T, entries map[string]string) (*httptest.Server, *atomic.Int64) {
	return faultyCacheServer(t, entries, "", 0, nil)
}

// faultyCacheServer is cacheServer behind a fault on every request:
// "down" hijacks the connection and closes it unanswered, "slow" holds
// the answer for delay, "corrupt" flips the middle byte of the body.
// spoiled (nil without a fault) counts the faulted requests.
func faultyCacheServer(t *testing.T, entries map[string]string, fault string, delay time.Duration, spoiled *atomic.Int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var reqs atomic.Int64
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
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		body, ok := entries[r.URL.Path]
		if !ok {
			http.Error(w, "unknown cache key", http.StatusNotFound)
			return
		}
		if fault == "corrupt" && len(body) > 0 {
			b := []byte(body)
			b[len(b)/2] ^= 0xff
			body = string(b)
		}
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv, &reqs
}

// lookup asks c for /cache/{key}, accepting any body unless vet (may be
// nil) rejects it, and returns the raw body.
func lookup(c *Client, key string, vet func(body []byte) error) ([]byte, string, bool) {
	v, url, ok := c.Lookup(context.Background(), key, "/cache/"+key, func(body []byte) (any, error) {
		if vet != nil {
			if err := vet(body); err != nil {
				return nil, err
			}
		}
		return body, nil
	})
	body, _ := v.([]byte)
	return body, url, ok
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
	srv, _ := cacheServer(t, map[string]string{"/cache/k1": "body-1"})
	c := newClient(fastCfg(srv.URL), fastTiming)
	defer c.Close()

	body, url, ok := lookup(c, "k1", nil)
	if !ok || string(body) != "body-1" || url != srv.URL {
		t.Fatalf("hit = %q %q %v, want body-1 from %s", body, url, ok, srv.URL)
	}
	if _, _, ok := lookup(c, "absent", nil); ok {
		t.Fatal("404 key returned a hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 0 errors", st)
	}
	// A 404 is an authoritative healthy miss, never breaker food.
	if ps := c.Snapshot()[0]; ps.State != "ok" || ps.ConsecutiveFails != 0 {
		t.Fatalf("peer state after 404 = %+v, want closed breaker", ps)
	}
}

func TestDownPeerFallsThroughToNext(t *testing.T) {
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // connection refused from here on
	up, _ := cacheServer(t, map[string]string{"/cache/k1": "body-1"})

	c := newClient(fastCfg(down.URL, up.URL), fastTiming)
	defer c.Close()
	body, url, ok := lookup(c, "k1", nil)
	if !ok || string(body) != "body-1" || url != up.URL {
		t.Fatalf("lookup with one dead peer = %q %q %v, want fallthrough hit", body, url, ok)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the hit recorded", st)
	}
}

func TestValidateRejectionIsAPeerFailure(t *testing.T) {
	srv, _ := cacheServer(t, map[string]string{"/cache/k1": "garbage"})
	c := newClient(fastCfg(srv.URL), fastTiming)
	defer c.Close()
	reject := func([]byte) error { return fmt.Errorf("checksum mismatch") }
	if _, _, ok := lookup(c, "k1", reject); ok {
		t.Fatal("corrupt body passed validation")
	}
	st := c.Stats()
	if st.Errors == 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want the rejection counted as an error", st)
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
	revived, _ := cacheServer(t, map[string]string{"/cache/k": "body"})
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
	// answers any /cache/* path: whichever key ranks the slow peer first
	// is served.
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fast-body")
	}))
	defer fast.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, "slow-body")
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

// TestInjectedPeerFaultsResolveToMisses: a peer that hangs up or sends a
// corrupted body costs a miss and a peer error, never a wrong answer —
// the corrupt body reaches the caller's decode and is rejected there. A
// slow peer still under the timeout answers late.
func TestInjectedPeerFaultsResolveToMisses(t *testing.T) {
	entries := map[string]string{"/cache/k1": "body-1"}
	for _, fault := range []string{"down", "corrupt"} {
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
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("setup: a lookup ran (%+v); only probes may touch the peer here", st)
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

// parkingServer answers nothing: each request signals entered, parks until
// its client goes away, then signals left.
func parkingServer(t *testing.T) (srv *httptest.Server, entered, left chan struct{}) {
	t.Helper()
	entered, left = make(chan struct{}, 16), make(chan struct{}, 16)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fast-body")
	}))
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
	if _, err := c.Do(context.Background(), slow.URL, http.MethodGet, "/sweeps", nil, nil); !errors.Is(err, ErrPeerOpen) {
		t.Fatalf("Do through an open breaker: err = %v, want ErrPeerOpen", err)
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
// Do through as the trial; every concurrent Do answers ErrPeerOpen without
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
					if !errors.Is(err, ErrPeerOpen) {
						t.Fatalf("a concurrent Do beside the trial: err = %v, want ErrPeerOpen", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("concurrent Do calls did not answer ErrPeerOpen while the trial was parked")
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
				arrived <- struct{}{}
				defer func() { left <- struct{}{} }()
				select {
				case <-released:
					fmt.Fprint(w, "body")
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
					_, _, ok := c.Lookup(ctx, "k", "/cache/k", func(body []byte) (any, error) { return body, nil })
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
