package fdvt

import (
	"bytes"
	"strings"
	"testing"
)

func TestExportImportRoundtrip(t *testing.T) {
	m := testModel(t)
	p := smallPanel(t, m, 40, 21)
	var buf bytes.Buffer
	if err := p.Export(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Import(&buf, m.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(p.Users) {
		t.Fatalf("roundtrip lost users: %d != %d", len(back.Users), len(p.Users))
	}
	for i, orig := range p.Users {
		got := back.Users[i]
		if got.ID != orig.ID || got.Country != orig.Country ||
			got.Gender != orig.Gender || got.Age != orig.Age {
			t.Fatalf("user %d demographics changed: %+v vs %+v", i, got, orig)
		}
		if len(got.Interests) != len(orig.Interests) {
			t.Fatalf("user %d interest count changed", i)
		}
		for j := range got.Interests {
			if got.Interests[j] != orig.Interests[j] {
				t.Fatalf("user %d interest %d changed", i, j)
			}
		}
	}
	// The reimported panel must describe identically.
	if p.Describe() != back.Describe() {
		t.Fatalf("stats changed:\n%v\n%v", p.Describe(), back.Describe())
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	m := testModel(t)
	cases := map[string]string{
		"malformed json":    `{"id": 1, "country"`,
		"unknown interest":  `{"id":1,"country":"ES","gender":"male","interests":[99999999]}`,
		"unsorted profile":  `{"id":1,"country":"ES","gender":"male","interests":[5,3]}`,
		"duplicate profile": `{"id":1,"country":"ES","gender":"male","interests":[5,5]}`,
	}
	for name, payload := range cases {
		if _, err := Import(strings.NewReader(payload), m.Catalog()); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	const unknown = `{"id":1,"country":"ES","gender":"male","interests":[3,99999999]}`
	if _, err := Import(strings.NewReader(unknown), m.Catalog()); err == nil ||
		err.Error() != "fdvt: import record 1: interest: unknown id 99999999" {
		t.Errorf("unknown interest: error %v", err)
	}
	if _, err := Import(strings.NewReader(""), m.Catalog()); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Import(strings.NewReader("{}"), nil); err == nil {
		t.Error("nil catalog accepted")
	}
}

func TestParseGender(t *testing.T) {
	cases := map[string]string{"male": "male", "female": "female", "undisclosed": "undisclosed", "other": "undisclosed"}
	for in, want := range cases {
		if got := parseGender(in).String(); got != want {
			t.Errorf("parseGender(%q) = %q, want %q", in, got, want)
		}
	}
}
