#!/bin/sh
# golines.sh — print the repository's size figure: lines of non-test
# Go in internal/, cmd/, examples/ and zbp.go that are neither blank
# nor `//`-only comments. Run it from the repository root (or via
# `make golines`); simplicity changes quote it before and after.
set -eu
find internal cmd examples zbp.go -name '*.go' ! -name '*_test.go' -exec cat {} + |
    grep -cvE '^[[:space:]]*(//.*)?$'
