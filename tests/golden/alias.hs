# w and x denote one set, so solve repeats a handle among its values
atom a = 0
atom b = 1
x = {y,a}
y = {x,b}
w = {y,a}
