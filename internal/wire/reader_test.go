package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sample is a request-shaped test struct covering every read method.
type sample struct {
	S  string    `json:"s"`
	F  float64   `json:"f"`
	I  int       `json:"i"`
	U  uint64    `json:"u"`
	Fs []float64 `json:"fs"`
}

var sampleFields = []string{"s", "f", "i", "u", "fs"}

func readSample(r *Reader, v *sample) {
	var seen uint64
	r.Object(func(key []byte) bool {
		switch r.Field(key, sampleFields, &seen) {
		case 0:
			v.S = r.Text()
		case 1:
			v.F = r.Float64()
		case 2:
			v.I = r.Int()
		case 3:
			v.U = r.Uint64()
		case 4:
			v.Fs = r.Floats()
		default:
			return false
		}
		return true
	})
}

// TestReadAcceptsAndMatchesUnmarshal checks that the reader takes the
// common shapes and decodes them exactly as json.Unmarshal does.
func TestReadAcceptsAndMatchesUnmarshal(t *testing.T) {
	for _, body := range []string{
		`{}`,
		` { "s" : "intel" , "f" : 1.5 } ` + "\n",
		`{"s":"npb/bt","f":-0,"i":-42,"u":18446744073709551615,"fs":[]}`,
		`{"f":1e308,"fs":[4.9e-324,1e-400,-0.0,0.1,123456789012345678901234567890]}`,
		`{"i":9223372036854775807,"u":0}`,
		`{"other":{"a":[1,true,false,"x",{"b":-2.5E+3}]},"s":"~` + "\x7f" + `"}`,
		`{"fs":[1,2,3],"x":[],"y":{}}`,
	} {
		var got, want sample
		if !Read([]byte(body), &got, readSample) {
			t.Errorf("declined %s", body)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("json.Unmarshal(%s): %v", body, err)
		}
		if math.Float64bits(got.F) != math.Float64bits(want.F) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: read %+v, json.Unmarshal %+v", body, got, want)
		}
		for i := range got.Fs {
			if math.Float64bits(got.Fs[i]) != math.Float64bits(want.Fs[i]) {
				t.Errorf("%s: fs[%d] bits differ", body, i)
			}
		}
	}
}

// TestReadDeclines checks every shape the reader leaves to
// encoding/json.
func TestReadDeclines(t *testing.T) {
	for _, body := range []string{
		``,
		`[]`,
		`"s"`,
		`null`,
		`{"s":"a\"b"}`,
		`{"s":"caf` + "\xc3\xa9" + `"}`,
		`{"s":"tab` + "\t" + `"}`,
		`{"ſ":"x"}`,
		`{"S":"x"}`,
		`{"FS":[]}`,
		`{"s":"a","s":"b"}`,
		`{"s":null}`,
		`{"fs":null}`,
		`{"fs":[1,null]}`,
		`{"x":null}`,
		`{"f":1e309}`,
		`{"i":1.0}`,
		`{"i":1e2}`,
		`{"i":9223372036854775808}`,
		`{"u":-1}`,
		`{"u":18446744073709551616}`,
		`{"s":1}`,
		`{"f":"1"}`,
		`{"fs":{}}`,
		`{"s":"x"} x`,
		`{"s":"x"}{}`,
		`{"s":"x"}` + "\x00",
		`{"s":"x",}`,
		`{"s" "x"}`,
		`{"f":01}`,
		`{"f":1.}`,
		`{"f":.5}`,
		`{"f":1e}`,
		`{"f":+1}`,
		`{"f":-}`,
		`{"x":tru}`,
		`{"x":[1,]}`,
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		`{"s":"unterminated`,
	} {
		var v sample
		if Read([]byte(body), &v, readSample) {
			t.Errorf("accepted %q as %+v", body, v)
		}
	}
}

// TestDecodeFallsBackToUnmarshal checks that a declined body gets
// exactly json.Unmarshal's value and error, starting from a zero value.
func TestDecodeFallsBackToUnmarshal(t *testing.T) {
	for _, body := range []string{
		`{"s":"a","f":2,"fs":[1],"i":1.5}`,
		`{"s":"café","f":2}`,
		`{"S":"x","s":"y"}`,
		`{"fs":[1,2`,
	} {
		got := sample{S: "stale", Fs: []float64{9}}
		err := Decode([]byte(body), &got, readSample)
		var want sample
		wantErr := json.Unmarshal([]byte(body), &want)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, want %v", body, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: value %+v, want %+v", body, got, want)
		}
	}
}

// TestReadDoesNotAliasBody checks that decoded strings and slices
// survive the body buffer being overwritten, as a pooled buffer is.
func TestReadDoesNotAliasBody(t *testing.T) {
	body := []byte(`{"s":"intel","fs":[1,2,3]}`)
	var v sample
	if !Read(body, &v, readSample) {
		t.Fatal("declined")
	}
	for i := range body {
		body[i] = 'x'
	}
	if v.S != "intel" || !reflect.DeepEqual(v.Fs, []float64{1, 2, 3}) {
		t.Fatalf("decoded value changed with the body: %+v", v)
	}
	if cap(v.Fs) != len(v.Fs) {
		t.Errorf("Floats returned cap %d for %d values", cap(v.Fs), len(v.Fs))
	}
}
