package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRequest checks decodeRequest against the decoder it stands in
// for: on any body, it and json.Decoder.Decode must both fail, with the
// same error text, or both succeed with the same Request. Wherever the
// one-pass reader accepts a body on its own, encoding/json must accept it
// too and read the same Request.
func FuzzDecodeRequest(f *testing.F) {
	simon, err := json.Marshal(Request{Format: "anf", Input: "# ANF system\nx1*x2 + x3 + 1\nx0 + x16 + x17\n", Mode: "solve"})
	if err != nil {
		f.Fatal(err)
	}
	dimacs, err := json.Marshal(Request{Format: "dimacs", Input: "c repeated request\np cnf 3 2\n1 -2 0\nx1 2 3 0\n", Mode: "solve",
		TimeoutMS: 5000, MaxIterations: 3, ConflictBudget: -7, Seed: 1 << 62, Workers: 2, Verify: true, MaxCubes: 4, Proof: true, Route: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(simon),
		string(dimacs),
		` { "format" : "anf" , "input" : "x1\n" } `,
		`{}`,
		`{"input":"xé⊕😀 \"quoted\" \\ \/ \b\f\n\r\t"}`,
		`{"input":"\ud83d"}`,
		`{"input":"\ude00\ud83d"}`,
		`{"input":"\uZZZZ"}`,
		`{"input":"\x"}`,
		"{\"input\":\"x1\xff\xfe\"}",
		"{\"input\":\"x1\x01\"}",
		"{\"input\":\"x1 + x2 + x3\x1f + x4 + x5 + x6\"}",
		"{\"input\":\"x1 + x2 + x3 ⊕ x4 + x5 + x6\\n\"}",
		"{\"input\":\"x1 + x2 + x3\xc3\x28 + x4 + x5 + x6\"}",
		`null`,
		`{"format":null}`,
		`{"mode":"solve","extra":1}`,
		`{"Format":"anf","INPUT":"x1\n"}`,
		`{"format":"anf"}`,
		`{"input":{"nested":true}}`,
		`{"seed":[1,2]}`,
		`{"seed":1.5}`,
		`{"seed":1e3}`,
		`{"seed":-0}`,
		`{"seed":007}`,
		`{"seed":9223372036854775807}`,
		`{"seed":-9223372036854775808}`,
		`{"seed":9223372036854775808}`,
		`{"seed":99999999999999999999}`,
		`{"timeout_ms":"5"}`,
		`{"verify":1}`,
		`{"verify":tru}`,
		`{"format":"anf"} trailing`,
		`{"format":"anf"}{"format":"dimacs"}`,
		`{"format":"anf",}`,
		`{"format":"anf" "mode":"solve"}`,
		`{"format":"a","format":"b"}`,
		`[1]`,
		`"text"`,
		``,
		`{"input":"x1`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want Request
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		got, err := decodeRequest(b)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, encoding/json error %v", b, err, wantErr)
		}
		if err == nil && got != want {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", b, got, want)
		}
		if flat, ok := decodeFlat(b); ok && (wantErr != nil || flat != want) {
			t.Fatalf("%q: one-pass reader gave %+v, encoding/json %+v (error %v)", b, flat, want, wantErr)
		}
	})
}

// TestDecodeFlatCoversRequest fails when a Request field is missing from
// the one-pass reader: a body naming it would still decode, through
// encoding/json, but every such request would pay for the slow path.
func TestDecodeFlatCoversRequest(t *testing.T) {
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		tag := strings.Split(field.Tag.Get("json"), ",")[0]
		var value string
		switch field.Type.Kind() {
		case reflect.String:
			value = `"v"`
		case reflect.Int, reflect.Int64:
			value = "7"
		case reflect.Bool:
			value = "true"
		default:
			t.Fatalf("Request.%s: teach decodeFlat and this test the kind %s", field.Name, field.Type.Kind())
		}
		body := `{"` + tag + `":` + value + `}`
		got, ok := decodeFlat([]byte(body))
		if !ok {
			t.Errorf("Request.%s: %s is not read in one pass", field.Name, body)
			continue
		}
		var want Request
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Request.%s: %s reads as %+v, want %+v", field.Name, body, got, want)
		}
	}
}

// A body that breaks off mid-read is decoded as a streaming decode sees
// it: an object that ended before the break is served, and any other body
// gets encoding/json's error for the same bytes and failure.
func TestReadRequestCutShort(t *testing.T) {
	broken := errors.New("connection reset")
	for _, body := range []string{
		`{"format":"anf","input":"x1\n","seed":3} and then`,
		`{"format":"anf","inp`,
		``,
	} {
		stream := func() io.Reader { return io.MultiReader(strings.NewReader(body), errReader{broken}) }
		var want Request
		wantErr := json.NewDecoder(stream()).Decode(&want)
		r := httptest.NewRequest(http.MethodPost, "/solve", stream())
		got, err := readRequest(httptest.NewRecorder(), r)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && got != want {
			t.Errorf("%q: read %+v, %v; a streaming decode gives %+v, %v", body, got, err, want, wantErr)
		}
	}
}
