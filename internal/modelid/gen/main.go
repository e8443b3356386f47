// Command gen writes model.go, the model identity constant of package
// modelid, from the module's current sources. Run it through
//
//	go generate ./internal/modelid
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"

	"pacram/internal/modelid"
)

func main() {
	id, pkgs, err := modelid.Compute(".")
	if err != nil {
		log.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by go generate; DO NOT EDIT.\n\npackage modelid\n\n")
	b.WriteString("// Model is the model identity (see Compute) of these packages:\n//\n")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "//\t%s\n", p)
	}
	fmt.Fprintf(&b, "const Model = %q\n", id)
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("model.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
