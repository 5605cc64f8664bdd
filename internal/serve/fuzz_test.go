package serve

import (
	"net/url"
	"slices"
	"strings"
	"testing"
)

// refPointQuery restates the url.Values-based GET /query/point parameter
// parse the server used before the pooled parser — url.ParseQuery with its
// partial-result-on-error behavior (exactly what r.URL.Query() returns),
// cube = first value, key = every
// value in order, keys = CSV fallback when no key params and non-empty.
// It is the oracle the zero-allocation parsePointQuery must match.
func refPointQuery(rawQuery string) (cube string, keys []string) {
	q, _ := url.ParseQuery(rawQuery)
	cube = q.Get("cube")
	keys = q["key"]
	if len(keys) == 0 && q.Get("keys") != "" {
		keys = strings.Split(q.Get("keys"), ",")
	}
	return cube, keys
}

// FuzzParsePointQuery differentially fuzzes the hand-rolled parse against
// the url.ParseQuery oracle. Any divergence — pair skipping on ';' or bad
// escapes, first-value-wins, CSV fallback edge cases, the historical nil
// for "no keys at all" — is a bug in the fast path.
func FuzzParsePointQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"cube=c&key=a&key=b",
		"cube=c&keys=a,b,c",
		"keys=",            // present but empty: no fallback, nil keys
		"keys=,",           // fallback to two empty keys
		"keys=a,,b",        // empty CSV element preserved
		"cube=a&cube=b",    // first value wins
		"cube=a;key=b",     // ';' pair skipped whole
		"a=b;c=d&key=x",    // only the ';' pair skipped
		"key=%zz",          // bad escape: pair skipped
		"%zz=key",          // bad escape in the name
		"key",              // bare name, empty value
		"key=a+b&cube=%41", // '+' and %-escapes decode
		"keys=%2C",         // escaped comma is a real CSV split after decode
		"key=a&keys=b,c",   // key params shadow the CSV form
		"&&&key=a&",        // empty pairs skipped
		"cube=live&key=*&key=Mon&key=",
		"%6Bey=x",      // escaped parameter name still matches "key"
		"KEY=a&Cube=b", // parameter names are case-sensitive
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		var p pointArgs
		cube, keys := parsePointQuery(rawQuery, &p)
		wantCube, wantKeys := refPointQuery(rawQuery)
		if cube != wantCube {
			t.Fatalf("parsePointQuery(%q) cube = %q, url.ParseQuery says %q", rawQuery, cube, wantCube)
		}
		if len(keys) == 0 && len(wantKeys) == 0 {
			if keys != nil {
				t.Fatalf("parsePointQuery(%q) returned empty non-nil keys; the response contract is the historical null", rawQuery)
			}
			return
		}
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("parsePointQuery(%q) keys = %q, url.ParseQuery says %q", rawQuery, keys, wantKeys)
		}
	})
}
