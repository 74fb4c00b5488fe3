module ccp/benchmark

go 1.22

require ccp v0.0.0

replace ccp => ../
