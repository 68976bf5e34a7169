module cxlalloc/benchmark

go 1.22

require cxlalloc v0.0.0

replace cxlalloc => ../
