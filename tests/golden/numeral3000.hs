# one equation over one large numeral atom: its closure holds 4.5 million
# memberships, and none of them decides an order
atom a = 3000
x = {x,a}
