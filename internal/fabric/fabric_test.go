package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// fastCfg keeps every timer short so breaker/hedge tests run in
// milliseconds. The prober is off: tests drive state transitions
// explicitly.
func fastCfg(peers ...string) Config {
	return Config{
		Peers:             peers,
		Timeout:           500 * time.Millisecond,
		HedgeDelay:        10 * time.Millisecond,
		BreakerBackoff:    30 * time.Millisecond,
		BreakerMaxBackoff: 200 * time.Millisecond,
		ProbeInterval:     -1,
	}
}

// cacheServer serves /cache/{key} from a fixed map, counting requests.
func cacheServer(t *testing.T, entries map[string]string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		if body, ok := entries[r.URL.Path]; ok {
			fmt.Fprint(w, body)
			return
		}
		http.Error(w, "unknown cache key", http.StatusNotFound)
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
	if c.Peers() != 0 || c.Available() != 0 || c.Snapshot() != nil {
		t.Fatal("nil client reported peers")
	}
	c.Close() // must not panic
	if New(Config{}) != nil {
		t.Fatal("New with no peers should return nil")
	}
}

func TestLookupHitAndMiss(t *testing.T) {
	srv, _ := cacheServer(t, map[string]string{"/cache/k1": "body-1"})
	c := New(fastCfg(srv.URL))
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

	c := New(fastCfg(down.URL, up.URL))
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
	c := New(fastCfg(srv.URL))
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
	c := New(fastCfg(down.URL))
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
	if c.Available() != 0 {
		t.Fatal("open breaker still counted available")
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
	time.Sleep(2 * c.cfg.BreakerBackoff)
	if ps := c.Snapshot()[0]; ps.State != "half-open" {
		t.Fatalf("peer state past backoff = %q, want half-open", ps.State)
	}
	if c.Available() != 1 {
		t.Fatal("half-open breaker not available for a trial")
	}

	// A recovered peer closes the breaker on the next successful trial.
	revived, _ := cacheServer(t, map[string]string{"/cache/k": "body"})
	c.peers[0].url = revived.URL // swap the address: same peer, now alive
	time.Sleep(2 * c.cfg.BreakerBackoff)
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
	c := New(fastCfg(slow.URL, fast.URL))
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
	c := New(fastCfg("http://a", "http://b", "http://c"))
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
	c2 := New(fastCfg("http://c", "http://a", "http://b"))
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

func TestInjectedPeerFaultsResolveToMisses(t *testing.T) {
	srv, _ := cacheServer(t, map[string]string{"/cache/k1": "body-1"})
	for _, spec := range []string{"seed=7,peer-err=1", "seed=7,peer-corrupt=1"} {
		inj, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastCfg(srv.URL)
		cfg.Faults = inj
		vet := func(body []byte) error {
			if string(body) != "body-1" {
				return fmt.Errorf("corrupt")
			}
			return nil
		}
		c := New(cfg)
		if _, _, ok := lookup(c, "k1", vet); ok {
			t.Fatalf("%s: injected fault still produced a hit", spec)
		}
		if st := c.Stats(); st.Errors == 0 {
			t.Fatalf("%s: fault not counted as error: %+v", spec, st)
		}
		c.Close()
	}
	// peer-slow below the timeout delays but still answers.
	inj, err := faults.Parse("seed=7,peer-slow=1,peer-slow-delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(srv.URL)
	cfg.Faults = inj
	c := New(cfg)
	defer c.Close()
	body, _, ok := lookup(c, "k1", nil)
	if !ok || string(body) != "body-1" {
		t.Fatalf("slow peer under the timeout = %q %v, want a delayed hit", body, ok)
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
	c := New(cfg)
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
	c := New(fastCfg(slow.URL, fast.URL))
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
