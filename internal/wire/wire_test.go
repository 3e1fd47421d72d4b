package wire

import (
	"encoding/json"
	"errors"
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
// encoding/json on every input, error text included.
func checkDecoder[T any](t *testing.T, data []byte, fast func([]byte) (T, bool), public, oracle func([]byte) (T, error)) (accepted bool) {
	t.Helper()
	want, wantErr := oracle(data)
	if got, ok := fast(data); ok {
		accepted = true
		if wantErr != nil {
			t.Errorf("fast path accepted %q, encoding/json says %v", data, wantErr)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("fast path decoded %q to %#v, encoding/json to %#v", data, got, want)
		}
	}
	got, err := public(data)
	switch {
	case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
		t.Errorf("decoding %q: error %v, encoding/json says %v", data, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Errorf("decoded %q to %#v, encoding/json to %#v", data, got, want)
	}
	return accepted
}

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
func testSeeds[T any](t *testing.T, canonical, declined []string, fast func([]byte) (T, bool), public, oracle func([]byte) (T, error)) {
	t.Helper()
	for _, s := range canonical {
		if !checkDecoder(t, []byte(s), fast, public, oracle) {
			t.Errorf("fast path declined canonical %q", s)
		}
	}
	for _, s := range declined {
		if checkDecoder(t, []byte(s), fast, public, oracle) {
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

func fuzzDecoder[T any](f *testing.F, seeds func() (canonical, declined []string), fast func([]byte) (T, bool), public, oracle func([]byte) (T, error)) {
	c, d := seeds()
	for _, s := range append(c, d...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoder(t, data, fast, public, oracle)
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
// buffer is reused as soon as it is decoded.
func TestDecodedStringsDoNotAliasInput(t *testing.T) {
	data := []byte(`{"objects":[{"name":"o1","values":["a","b"]}]}`)
	objs, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if want := []paretomon.Object{{Name: "o1", Values: []string{"a", "b"}}}; !reflect.DeepEqual(objs, want) {
		t.Fatalf("decoded strings alias the input: %#v", objs)
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

// checkEncoders asserts all four encoders against json.Marshal of the
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
	if got, ok := parseBatch(AppendBatch(nil, objs)); !ok || !reflect.DeepEqual(got, objs) {
		t.Errorf("batch round trip: %#v, fast path %v", got, ok)
	}
	if got, ok := parseObject(AppendObject(nil, objs[0])); !ok || !reflect.DeepEqual(got, objs[0]) {
		t.Errorf("object round trip: %#v, fast path %v", got, ok)
	}
	ds := []paretomon.Delivery{{Object: "o1", Users: []string{"c1", "c2"}}, {Object: "o2", Users: []string{}}}
	if got, ok := parseDeliveries(append(AppendDeliveries(nil, ds), '\n')); !ok || !reflect.DeepEqual(got, ds) {
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
	big := &Buffer{B: make([]byte, 0, maxPooled+1)}
	big.Free()
	for i := 0; i < 8; i++ {
		if got := GetBuffer(); cap(got.B) > maxPooled {
			t.Fatalf("a %d-byte buffer came back from the pool", cap(got.B))
		}
	}
}
