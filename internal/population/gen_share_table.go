//go:build ignore

// gen_share_table writes default_share_table.go: the share table of
// DefaultConfig's activity grid, one exact hex-float literal per point, as
// Model.ShareTable computes it. Run it with
//
//	go generate ./internal/population
//
// on linux/amd64 with FMA, the kind of host the pinned golden digests were
// recorded on; TestDefaultShareTable checks the file against a fresh
// computation.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strconv"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

func main() {
	// The share table depends on the activity grid alone; any catalog will do.
	icfg := interest.DefaultConfig()
	icfg.Size = 1
	cat, err := interest.Generate(icfg, rng.New(1))
	if err != nil {
		log.Fatal(err)
	}
	m, err := population.NewModel(population.DefaultConfig(cat))
	if err != nil {
		log.Fatal(err)
	}
	_, shares := m.ShareTable()

	var b bytes.Buffer
	b.WriteString(`// Code generated by go generate ./internal/population; DO NOT EDIT.

package population

// defaultShareTable is the share table of DefaultConfig's activity grid
// (DefaultActivitySigma, DefaultActivityGridSize): point j is
// marginalShare(exp(shareTableLogLambda(j))), bit for bit.
var defaultShareTable = [shareTablePoints]float64{
`)
	for _, s := range shares {
		fmt.Fprintf(&b, "\t%s,\n", strconv.FormatFloat(s, 'x', -1, 64))
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("default_share_table.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
