module edgesurgeon/bench

go 1.22

require edgesurgeon v0.0.0

replace edgesurgeon => ../
