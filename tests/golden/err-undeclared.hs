x = {a}
y = {x,
  b}