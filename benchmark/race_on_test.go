//go:build race

package main

// Under the race detector the servers run several times slower, requests
// wait past the 5 ms queue-delay target with 512 in flight, and CoDel
// sheds some: a property of the load shape on a slow host, not a failed
// check.
const raceEnabled = true
