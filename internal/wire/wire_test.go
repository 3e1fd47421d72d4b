package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	paretomon "repro"
)

// The oracle of every decoder test is the json* fall-back next to the
// decoder: encoding/json into the tagged struct, which is what the
// handlers and the router did before this package existed.

// checkDecoder holds one decoder to its contract on one input: when the
// fast path accepts, encoding/json accepts with a DeepEqual result (nil
// and empty slices are different); and the public function agrees with
// encoding/json on every input, error text included. It decodes the
// input three times through one Buffer — cold, warm (the cache holds
// what the first pass saw), and with the input's own strings cached —
// and requires the same answer every time.
func checkDecoder[T any](t *testing.T, data []byte, fast, public func(*Buffer) (T, error), oracle func([]byte) (T, error)) (accepted bool) {
	t.Helper()
	want, wantErr := oracle(data)
	b := &Buffer{}
	for pass, name := range []string{"cold", "warm", "seeded"} {
		if pass == 2 && wantErr == nil {
			for _, s := range decodedStrings(want) {
				b.str([]byte(s))
			}
		}
		b.B = append(b.B[:0], data...)
		got, err := fast(b)
		if ok := err == nil; pass == 0 {
			accepted = ok
		} else if ok != accepted {
			t.Errorf("%s buffer: fast path on %q says %v, cold said %v", name, data, ok, accepted)
		}
		if err == nil {
			if wantErr != nil {
				t.Errorf("%s buffer: fast path accepted %q, encoding/json says %v", name, data, wantErr)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s buffer: fast path decoded %q to %#v, encoding/json to %#v", name, data, got, want)
			}
		}
		b.B = append(b.B[:0], data...)
		got, err = public(b)
		switch {
		case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
			t.Errorf("%s buffer: decoding %q: error %v, encoding/json says %v", name, data, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s buffer: decoded %q to %#v, encoding/json to %#v", name, data, got, want)
		}
		if len(b.elems) != 0 || len(b.strs) != 0 {
			t.Errorf("%s buffer: decoding %q left %d elements, %d strings of scratch", name, data, len(b.elems), len(b.strs))
		}
	}
	return accepted
}

// decodedStrings lists every string of a decoded value.
func decodedStrings(v any) []string {
	var out []string
	switch v := v.(type) {
	case paretomon.Object:
		out = append(append(out, v.Name), v.Values...)
	case []paretomon.Object:
		for _, o := range v {
			out = append(append(out, o.Name), o.Values...)
		}
	case []paretomon.Delivery:
		for _, d := range v {
			out = append(append(out, d.Object), d.Users...)
		}
	}
	return out
}

// fastPath adapts a parse* function to checkDecoder: a decline is an
// error, of no particular text.
func fastPath[T any](parse func(*Buffer) (T, bool)) func(*Buffer) (T, error) {
	return func(b *Buffer) (T, error) {
		v, ok := parse(b)
		if !ok {
			return v, errDeclined
		}
		return v, nil
	}
}

var errDeclined = errors.New("declined")

// The seed corpus: canonical bodies the fast path must take, and bodies
// it must leave to encoding/json.
var (
	canonicalObjects = []string{
		`{"name":"o1","values":["13-15.9","Apple","dual"]}`,
		`{"name":"","values":[]}`,
		" {\t\"name\" :\r\n\"o 1\" , \"values\" : [ \"a\" ,\"b\" ] } \n",
		"{\"name\":\"caf\u00e9 \u2028 <&>\",\"values\":[\"\u65e5\u672c\u8a9e\",\"\U0001F600\"]}", // raw UTF-8 once Go has unquoted the literal
		`{"name":"seventeen","values":["1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16","17"]}`,
	}
	declinedObjects = []string{
		``, ` `, `null`, `{}`, `[]`, `"x"`, `{`, `{"name"`, `{"name":"a"`, `{"name":"a","values":["b"`,
		`{"values":["a"],"name":"o1"}`,                   // reordered
		`{"name":"a","name":"o1","values":["a"]}`,        // duplicate
		`{"name":"o1","values":["a"],"values":["b"]}`,    // duplicate, last wins
		`{"name":"o1","extra":1,"values":["a"]}`,         // unknown
		`{"name":"o1","values":["a"],"extra":{"x":[1]}}`, // unknown, trailing
		`{"Name":"o1","VALUES":["a"]}`,                   // case-folded
		`{"name":"o1"}`, `{"values":["a"]}`,              // missing
		`{"name":null,"values":["a"]}`, `{"name":"o1","values":null}`, `{"name":"o1","values":[null]}`,
		`{"name":"o\n1","values":["a"]}`, `{"name":"o1","values":["\"q\""]}`, `{"name":"\u00e9","values":["\ud83d\ude00"]}`, // escapes
		"{\"name\":\"o\x011\",\"values\":[]}",                                                                                      // raw control byte
		"{\"name\":\"o\xff1\",\"values\":[\"\xc3\"]}",                                                                              // invalid UTF-8
		"{\"name\":\"\xed\xa0\x80\",\"values\":[]}",                                                                                // UTF-8-encoded surrogate
		`{"name":"o1","values":["a"]} x`, `{"name":"o1","values":["a"]}{"name":"o2","values":[]}`, `{"name":"o1","values":["a"]}]`, // trailing bytes
		`{"name":1,"values":["a"]}`, `{"name":"o1","values":[1]}`, `{"name":"o1","values":"a"}`, `{"name":"o1","values":{}}`,
		`{"name":"o1","values":["a",]}`, `{"name":"o1","values":[,"a"]}`, `{"name":"o1",,"values":[]}`, `{"name":"o1" "values":[]}`,
		"\xef\xbb\xbf" + `{"name":"o1","values":["a"]}`, // BOM
	}
)

// retag rewrites the object seeds into delivery seeds.
var retag = strings.NewReplacer(`"name"`, `"object"`, `"values"`, `"users"`, `"Name"`, `"Object"`, `"VALUES"`, `"USERS"`)

func wrap(key string, elems ...string) string {
	return `{"` + key + `":[` + strings.Join(elems, ",") + `]}`
}

func objectSeeds() (canonical, declined []string) { return canonicalObjects, declinedObjects }

// declinedElems are the declined object bodies that still decline as an
// array element (a blank one just makes the array shorter).
func declinedElems() []string {
	return slices.DeleteFunc(slices.Clone(declinedObjects), func(s string) bool { return strings.TrimSpace(s) == "" })
}

func batchSeeds() (canonical, declined []string) {
	canonical = []string{
		wrap("objects"), wrap("objects", canonicalObjects...), wrap("objects", canonicalObjects[0]),
		" { \"objects\" : [ " + canonicalObjects[2] + " , " + canonicalObjects[0] + " ] } \r\n",
	}
	declined = []string{
		``, `null`, `{}`, `[]`, `{"objects":null}`, `{"objects":{}}`, `{"objects":[null]}`, `{"objects":[[]]}`,
		`{"Objects":[]}`, `{"objects":[],"objects":[]}`, `{"objects":[],"x":1}`, `{"x":1,"objects":[]}`,
		`{"objects":[]} x`, `{"objects":[]}{}`, `{"objects":[`, `{"objects":[` + canonicalObjects[0], `{"objects":[` + canonicalObjects[0] + `,]}`,
	}
	for _, d := range declinedElems() {
		declined = append(declined, wrap("objects", d), wrap("objects", canonicalObjects[0], d))
	}
	return canonical, declined
}

func deliverySeeds() (canonical, declined []string) {
	var cd []string
	for _, c := range canonicalObjects {
		cd = append(cd, retag.Replace(c))
	}
	canonical = []string{
		wrap("deliveries"), wrap("deliveries", cd...), wrap("deliveries", cd[0]) + "\n",
		"{\n  \"deliveries\": [\n    " + cd[2] + ",\n    " + cd[0] + "\n  ]\n}\n",
	}
	declined = []string{
		``, `null`, `{}`, `{"deliveries":null}`, `{"deliveries":[null]}`, `{"DELIVERIES":[]}`,
		`{"deliveries":[],"deliveries":[]}`, `{"deliveries":[],"x":1}`, `{"deliveries":[]} x`, `{"deliveries":[`,
	}
	for _, d := range declinedElems() {
		declined = append(declined, wrap("deliveries", retag.Replace(d)), wrap("deliveries", cd[0], retag.Replace(d)))
	}
	return canonical, declined
}

// testSeeds asserts the seed corpus itself: canonical bodies take the
// fast path, the rest decline, and both decode as encoding/json does.
func testSeeds[T any](t *testing.T, canonical, declined []string, parse func(*Buffer) (T, bool), public func(*Buffer) (T, error), oracle func([]byte) (T, error)) {
	t.Helper()
	for _, s := range canonical {
		if !checkDecoder(t, []byte(s), fastPath(parse), public, oracle) {
			t.Errorf("fast path declined canonical %q", s)
		}
	}
	for _, s := range declined {
		if checkDecoder(t, []byte(s), fastPath(parse), public, oracle) {
			t.Errorf("fast path accepted %q", s)
		}
	}
}

func TestDecodeObjectSeeds(t *testing.T) {
	c, d := objectSeeds()
	testSeeds(t, c, d, parseObject, DecodeObject, jsonObject)
}

func TestDecodeBatchSeeds(t *testing.T) {
	c, d := batchSeeds()
	testSeeds(t, c, d, parseBatch, DecodeBatch, jsonBatch)
}

func TestDecodeDeliveriesSeeds(t *testing.T) {
	c, d := deliverySeeds()
	testSeeds(t, c, d, parseDeliveries, DecodeDeliveries, jsonDeliveries)
}

func fuzzDecoder[T any](f *testing.F, seeds func() (canonical, declined []string), parse func(*Buffer) (T, bool), public func(*Buffer) (T, error), oracle func([]byte) (T, error)) {
	c, d := seeds()
	for _, s := range append(c, d...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoder(t, data, fastPath(parse), public, oracle)
	})
}

func FuzzDecodeObject(f *testing.F) {
	fuzzDecoder(f, objectSeeds, parseObject, DecodeObject, jsonObject)
}

func FuzzDecodeBatch(f *testing.F) {
	fuzzDecoder(f, batchSeeds, parseBatch, DecodeBatch, jsonBatch)
}

func FuzzDecodeDeliveries(f *testing.F) {
	fuzzDecoder(f, deliverySeeds, parseDeliveries, DecodeDeliveries, jsonDeliveries)
}

// TestDecodedStringsDoNotAliasInput pins the Buffer contract: a body's
// buffer is reused as soon as it is decoded, and what one decode hands
// out — a cached value, an object's share of the batch's values — is
// not changed by the next decode or by an append to another object.
func TestDecodedStringsDoNotAliasInput(t *testing.T) {
	b := &Buffer{B: []byte(`{"objects":[{"name":"o1","values":["a","b"]},{"name":"o2","values":["a","c"]}]}`)}
	objs, err := DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []paretomon.Object{{Name: "o1", Values: []string{"a", "b"}}, {Name: "o2", Values: []string{"a", "c"}}}
	clear(b.B)
	if !reflect.DeepEqual(objs, want) {
		t.Fatalf("decoded strings alias the input: %#v", objs)
	}
	if got := append(objs[0].Values, "x"); !reflect.DeepEqual(objs[1].Values, want[1].Values) || got[2] != "x" {
		t.Fatalf("an append to object 0's values overwrote object 1's: %q", objs[1].Values)
	}
	b.B = []byte(`{"objects":[{"name":"o3","values":["a","b"]}]}`) // every value cached now
	again, err := DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	clear(b.B)
	if !reflect.DeepEqual(again, []paretomon.Object{{Name: "o3", Values: []string{"a", "b"}}}) || !reflect.DeepEqual(objs, want) {
		t.Fatalf("cached values alias the input: %#v, then %#v", again, objs)
	}
}

// TestStringCacheBounds: a string longer than maxCachedLen, or past
// maxCached entries, is decoded but not cached.
func TestStringCacheBounds(t *testing.T) {
	b := &Buffer{}
	long, short := strings.Repeat("v", maxCachedLen+1), strings.Repeat("v", maxCachedLen)
	b.B = []byte(`{"name":"o","values":["` + long + `","` + short + `"]}`)
	o, err := DecodeObject(b)
	if err != nil || !reflect.DeepEqual(o.Values, []string{long, short}) {
		t.Fatalf("DecodeObject = %#v, %v", o, err)
	}
	if _, ok := b.cache[long]; ok {
		t.Errorf("a %d-byte value was cached", len(long))
	}
	if _, ok := b.cache[short]; !ok {
		t.Errorf("a %d-byte value was not cached", len(short))
	}
	for i := len(b.cache); i < maxCached; i++ {
		b.str([]byte(fmt.Sprint("k", i)))
	}
	b.B = []byte(`{"name":"o","values":["past-the-bound"]}`)
	if o, err := DecodeObject(b); err != nil || o.Values[0] != "past-the-bound" {
		t.Fatalf("DecodeObject past the bound = %#v, %v", o, err)
	}
	if _, ok := b.cache["past-the-bound"]; ok || len(b.cache) != maxCached {
		t.Errorf("cache holds %d entries (want %d), the newcomer cached %v", len(b.cache), maxCached, ok)
	}
}

// TestDecodeAllocs: a warm buffer decodes a batch of n objects into its
// n names, the objects and one values slice; a single object into its
// name and its values.
func TestDecodeAllocs(t *testing.T) {
	const n = 16
	objs := make([]paretomon.Object, n)
	for i := range objs {
		objs[i] = paretomon.Object{Name: fmt.Sprint("o", i), Values: []string{"13-15.9", "Apple", fmt.Sprint("v", i%3), "dual"}}
	}
	b := &Buffer{}
	body := AppendBatch(nil, objs)
	if got := testing.AllocsPerRun(100, func() {
		b.B = append(b.B[:0], body...)
		if _, err := DecodeBatch(b); err != nil {
			t.Fatal(err)
		}
	}); got != n+2 {
		t.Errorf("DecodeBatch of %d objects into a warm buffer: %v allocs, want %d", n, got, n+2)
	}
	one := AppendObject(nil, objs[0])
	if got := testing.AllocsPerRun(100, func() {
		b.B = append(b.B[:0], one...)
		if _, err := DecodeObject(b); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("DecodeObject into a warm buffer: %v allocs, want 2", got)
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	objs := make([]paretomon.Object, 16)
	for i := range objs {
		objs[i] = paretomon.Object{Name: fmt.Sprint("o", i), Values: []string{"13-15.9", "Apple", fmt.Sprint("v", i%3), "dual"}}
	}
	body := AppendBatch(nil, objs)
	buf := &Buffer{}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for range b.N {
		buf.B = append(buf.B[:0], body...)
		if _, err := DecodeBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- encoders ----

// nonNil is the server's old toResponse: "nobody" is [], never null.
func nonNil(ss []string) []string {
	if ss == nil {
		return []string{}
	}
	return ss
}

// deltaResponse is the /deltas frame as the server marshalled it with
// encoding/json before AppendDelta.
type deltaResponse struct {
	Object  string   `json:"object"`
	Entered []string `json:"entered"`
	Left    []string `json:"left"`
}

// checkEncoders asserts all five encoders against json.Marshal of the
// tagged structs for strings built from s.
func checkEncoders(t *testing.T, s string) {
	t.Helper()
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, list := range [][]string{nil, {}, {s}, {s, "plain", s + s}} {
		o := paretomon.Object{Name: s, Values: list}
		if got, want := string(AppendObject(nil, o)), marshal(objectRequest(o)); got != want {
			t.Fatalf("AppendObject(%q, %q) = %s, json.Marshal = %s", s, list, got, want)
		}
		d := paretomon.Delivery{Object: s, Users: list}
		if got, want := string(AppendDelivery(nil, d)), marshal(deliveryResponse{Object: s, Users: nonNil(list)}); got != want {
			t.Fatalf("AppendDelivery(%q, %q) = %s, json.Marshal = %s", s, list, got, want)
		}
		for _, left := range [][]string{nil, {}, {s}, list} {
			fd := paretomon.FrontierDelta{Object: s, Entered: list, Left: left}
			if got, want := string(AppendDelta(nil, fd)), marshal(deltaResponse{Object: s, Entered: nonNil(list), Left: nonNil(left)}); got != want {
				t.Fatalf("AppendDelta(%q, %q, %q) = %s, json.Marshal = %s", s, list, left, got, want)
			}
		}
		for n := 0; n <= 3; n++ {
			objs, ds := make([]paretomon.Object, n), make([]paretomon.Delivery, n)
			bj, dj := batchRequest{Objects: make([]objectRequest, n)}, batchResponse{Deliveries: make([]deliveryResponse, n)}
			for i := range n {
				objs[i], ds[i] = o, d
				bj.Objects[i], dj.Deliveries[i] = objectRequest(o), deliveryResponse{Object: s, Users: nonNil(list)}
			}
			if got, want := string(AppendBatch(nil, objs)), marshal(bj); got != want {
				t.Fatalf("AppendBatch = %s, json.Marshal = %s", got, want)
			}
			if got, want := string(AppendDeliveries(nil, ds)), marshal(dj); got != want {
				t.Fatalf("AppendDeliveries = %s, json.Marshal = %s", got, want)
			}
		}
	}
}

func TestEncodersMatchJSONMarshal(t *testing.T) {
	checkEncoders(t, "")
	for b := 0; b < 256; b++ {
		checkEncoders(t, string([]byte{byte(b)}))
		checkEncoders(t, string([]byte{'a', byte(b), 'z'}))
	}
	for _, s := range []string{
		"\u2028", "\u2029", "a\u2028b\u2029c", "\u2027\u202a", "\ufffd", "\xef\xbf", "\xed\xa0\x80", "\xf4\x90\x80\x80",
		`<script>alert("x & y")</script>`, "tab\there\r\n", "\x00\x1f\x7f", "caf\u00e9 \u65e5\u672c\u8a9e \U0001F600",
	} {
		checkEncoders(t, s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				sb.WriteByte(byte(rng.Intn(256))) // often invalid UTF-8
			case 1:
				sb.WriteRune(rune(0x2020 + rng.Intn(0x10))) // around U+2028/U+2029
			default:
				sb.WriteRune(rune(rng.Intn(0x110000)))
			}
		}
		checkEncoders(t, sb.String())
	}
}

// TestEncodeDecodeRoundTrip: what the encoders write is canonical, so
// the hop between two processes of this repo never leaves the fast path
// (unless a string needed escaping).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	objs := []paretomon.Object{{Name: "o1", Values: []string{"13-15.9", "Apple"}}, {Name: "o2", Values: []string{}}}
	if got, ok := parseBatch(&Buffer{B: AppendBatch(nil, objs)}); !ok || !reflect.DeepEqual(got, objs) {
		t.Errorf("batch round trip: %#v, fast path %v", got, ok)
	}
	if got, ok := parseObject(&Buffer{B: AppendObject(nil, objs[0])}); !ok || !reflect.DeepEqual(got, objs[0]) {
		t.Errorf("object round trip: %#v, fast path %v", got, ok)
	}
	ds := []paretomon.Delivery{{Object: "o1", Users: []string{"c1", "c2"}}, {Object: "o2", Users: []string{}}}
	if got, ok := parseDeliveries(&Buffer{B: append(AppendDeliveries(nil, ds), '\n')}); !ok || !reflect.DeepEqual(got, ds) {
		t.Errorf("deliveries round trip: %#v, fast path %v", got, ok)
	}
}

func TestEncodersDoNotAllocate(t *testing.T) {
	objs := []paretomon.Object{{Name: "o<1>", Values: []string{"13-15.9", "Apple", "caf\u00e9\u2028"}}, {Name: "o2"}}
	ds := []paretomon.Delivery{{Object: "o<1>", Users: []string{"c1", "c\xff2"}}, {Object: "o2"}}
	buf := make([]byte, 0, 1024)
	for name, encode := range map[string]func(){
		"AppendObject":     func() { buf = AppendObject(buf[:0], objs[0]) },
		"AppendBatch":      func() { buf = AppendBatch(buf[:0], objs) },
		"AppendDelivery":   func() { buf = AppendDelivery(buf[:0], ds[0]) },
		"AppendDeliveries": func() { buf = AppendDeliveries(buf[:0], ds) },
		"AppendDelta":      func() { buf = AppendDelta(buf[:0], paretomon.FrontierDelta{Object: "o<1>", Entered: ds[0].Users}) },
	} {
		if n := testing.AllocsPerRun(100, encode); n != 0 {
			t.Errorf("%s into a warm buffer: %v allocs per run, want 0", name, n)
		}
	}
}

func TestBufferReadAllAndPoolCap(t *testing.T) {
	b := GetBuffer()
	body := strings.Repeat("x", 5000)
	if err := b.ReadAll(strings.NewReader(body), len(body)); err != nil || string(b.B) != body {
		t.Fatalf("ReadAll: %d bytes, err %v", len(b.B), err)
	}
	if err := b.ReadAll(strings.NewReader(body), len(body)-1); !errors.Is(err, ErrTooLarge) || len(b.B) != len(body) {
		t.Fatalf("ReadAll past the limit: %d bytes read, err %v", len(b.B), err)
	}
	if err := b.ReadAll(strings.NewReader("short"), len(body)); err != nil || string(b.B) != "short" {
		t.Fatalf("ReadAll does not replace: %q, err %v", b.B, err)
	}
	b.Free()
	scratch := &Buffer{strs: make([]string, 0, maxScratch+1)}
	scratch.str([]byte("kept"))
	scratch.Free()
	if scratch.strs != nil || scratch.cache["kept"] != "kept" {
		t.Fatalf("Free kept %d strings of scratch, cache %v", cap(scratch.strs), scratch.cache)
	}
	big := &Buffer{B: make([]byte, 0, maxPooled+1)}
	big.Free()
	for i := 0; i < 8; i++ {
		if got := GetBuffer(); cap(got.B) > maxPooled {
			t.Fatalf("a %d-byte buffer came back from the pool", cap(got.B))
		}
	}
}
