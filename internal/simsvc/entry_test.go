package simsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// compactRule is the entry rule verifyEntry's one pass replaced, kept as
// the oracle: the same envelope, json.Compact to recompute the result's
// canonical bytes, sha256 over key|compact, and json.Unmarshal of the
// compact bytes.
func compactRule(key string, body []byte) (*core.Result, error) {
	if !validKey(key) {
		return nil, errors.New("not a cache key")
	}
	prefix := entryHead + key + entrySumKey
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return nil, errNotEntry
	}
	rest := body[len(prefix):]
	if len(rest) < entrySumLen+len(entryResKey)+len(entryTail) ||
		!bytes.HasPrefix(rest[entrySumLen:], []byte(entryResKey)) || !bytes.HasSuffix(rest, []byte(entryTail)) {
		return nil, errNotEntry
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rest[entrySumLen+len(entryResKey):len(rest)-len(entryTail)]); err != nil {
		return nil, err
	}
	if compactSum(key, compact.Bytes()) != string(rest[:entrySumLen]) {
		return nil, errors.New("checksum mismatch")
	}
	r := new(core.Result)
	if err := json.Unmarshal(compact.Bytes(), r); err != nil {
		return nil, err
	}
	return r, nil
}

// compactSum is the checksum as compactRule computes it.
func compactSum(key string, compact []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{'|'})
	h.Write(compact)
	return hex.EncodeToString(h.Sum(nil))[:entrySumLen]
}

// FuzzEntrySum: for any key and result bytes, decodeEntry accepts an
// entry exactly when compactRule does, and then decodes the same result
// and keeps the bytes as the entry's wire form. The entry carries
// compactRule's checksum (mode even; over the bytes themselves where
// they do not compact) or entrySum's (mode odd), which bytes that are
// not JSON can also match. The committed seeds hold spaces, tabs and
// line breaks inside and outside strings, \", \\ and \u escapes, and
// truncated and invalid JSON.
func FuzzEntrySum(f *testing.F) {
	f.Add(testKey(1), []byte(`{"Cycles": 7, "Note": "a b"}`), byte(0))
	f.Fuzz(func(t *testing.T, key string, result []byte, mode byte) {
		var sum string
		if mode%2 == 0 {
			var compact bytes.Buffer
			if json.Compact(&compact, result) == nil {
				sum = compactSum(key, compact.Bytes())
			} else {
				sum = compactSum(key, result)
			}
		} else {
			s := entrySum(key, result)
			sum = string(s[:])
		}
		body := []byte(entryHead + key + entrySumKey + sum + entryResKey + string(result) + entryTail)
		want, wantErr := compactRule(key, body)
		got, err := decodeEntry(key, body)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decodeEntry err = %v, compactRule err = %v", err, wantErr)
		case err != nil:
		case !reflect.DeepEqual(*got.res, *want):
			t.Fatalf("decodeEntry = %+v, compactRule = %+v", *got.res, *want)
		case !bytes.Equal(got.wire, body):
			t.Fatal("the entry's wire form is not the bytes it was decoded from")
		}
	})
}

// TestCommittedEntryFileRoundTrips: an entry file as earlier builds wrote
// it decodes, and the result re-encodes to the same bytes, so cache
// directories and peers of those builds and this one read each other's
// entries.
func TestCommittedEntryFileRoundTrips(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "entries", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed entry files: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		key := strings.TrimSuffix(filepath.Base(path), ".json")
		e, err := decodeEntry(key, data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if want, err := compactRule(key, data); err != nil || !reflect.DeepEqual(*e.res, *want) {
			t.Fatalf("%s: decodeEntry = %+v, compactRule = %+v, %v", path, *e.res, want, err)
		}
		if got := newEntry(key, *e.res).wire; !bytes.Equal(got, data) {
			t.Fatalf("%s re-encodes as\n%s", path, got)
		}
	}
}
