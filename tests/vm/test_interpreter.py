"""Interpreter behavior tests: MJ programs executed end to end."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj, eval_expr, run_mj, stdout_of

from repro.errors import VMError
from repro.vm.interpreter import ENGINES, forced_engine


# ------------------------------------------------------------------ arithmetic
def test_int_arithmetic():
    assert eval_expr("2 + 3 * 4 - 6 / 2") == "11"
    assert eval_expr("7 % 3") == "1"
    assert eval_expr("-7 / 2") == "-3"   # truncation toward zero
    assert eval_expr("-7 % 2") == "-1"


def test_int_overflow_wraps():
    assert eval_expr("2147483647 + 1") == "-2147483648"
    assert eval_expr("2147483647 * 2") == "-2"


#: integer literals that only a two's-complement reading makes fit their
#: type, used inside a loop so that the compiled tier runs them as a region
WRAPPED_LITERALS = """
class Lit {
    static void main(String[] args) {
        int hits = 0;
        long last = 0L;
        for (int i = 0; i < 300; i++) {
            int x = 0xFFFFFFFF;
            int y = 2147483648;
            long z = 0x8000000000000000L;
            if (x == -1) { hits = hits + 1; }
            if (y == -2147483647 - 1) { hits = hits + 1; }
            if (z < 0L) { hits = hits + 1; }
            last = z + x + y + 2654435761;
        }
        Sys.println("" + hits);
        Sys.println("" + last);
        Sys.println("" + 0xFFFFFFFF + " " + 2147483648 + " " + 0x8000000000000000L);
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_integer_literals_take_their_twos_complement_value(engine):
    with forced_engine(engine):
        assert stdout_of(WRAPPED_LITERALS) == [
            "900",
            # z + x wraps below the least long; y and the last literal
            # are negative ints
            str((2**63 - 1) - 2**31 + (2654435761 - 2**32)),
            "-1 -2147483648 -9223372036854775808",
        ]


def test_long_arithmetic():
    assert eval_expr("(1L << 40) + 5L", ty="long") == "1099511627781"
    assert eval_expr("9223372036854775807L + 1L", ty="long") == "-9223372036854775808"


def test_float_arithmetic():
    assert eval_expr("1.5 * 2.0", ty="float") == "3.0"
    assert eval_expr("1.0 / 4.0", ty="float") == "0.25"


def test_mixed_promotion():
    assert eval_expr("1 + 2L", ty="long") == "3"
    assert eval_expr("1 + 0.5", ty="float") == "1.5"
    assert eval_expr("3L * 0.5", ty="float") == "1.5"


def test_bitwise_ops():
    assert eval_expr("12 & 10") == "8"
    assert eval_expr("12 | 10") == "14"
    assert eval_expr("12 ^ 10") == "6"
    assert eval_expr("1 << 5") == "32"
    assert eval_expr("-8 >> 1") == "-4"
    assert eval_expr("-1 >>> 28") == "15"


def test_division_by_zero_raises():
    with pytest.raises(VMError, match="division by zero"):
        eval_expr("1 / 0")
    with pytest.raises(VMError, match="division by zero"):
        eval_expr("1L % 0L", ty="long")


def test_casts():
    assert eval_expr("(int) 3.99") == "3"
    assert eval_expr("(int) -3.99") == "-3"
    assert eval_expr("(int) 5000000000L") == "705032704"
    assert eval_expr("(float) 3", ty="float") == "3.0"


# ------------------------------------------------------------------ control flow
def test_if_else_chains():
    src = """
    class M {
        static String grade(int score) {
            if (score >= 90) { return "A"; }
            else if (score >= 80) { return "B"; }
            else { return "C"; }
        }
        static void main(String[] a) {
            Sys.println(grade(95) + grade(85) + grade(10));
        }
    }
    """
    assert stdout_of(src) == ["ABC"]


def test_while_and_for_equivalent():
    src = """
    class M {
        static void main(String[] a) {
            int s1 = 0;
            int i = 0;
            while (i < 10) { s1 = s1 + i; i++; }
            int s2 = 0;
            for (int j = 0; j < 10; j++) { s2 = s2 + j; }
            Sys.println(s1 + "," + s2);
        }
    }
    """
    assert stdout_of(src) == ["45,45"]


def test_break_continue():
    src = """
    class M {
        static void main(String[] a) {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) { continue; }
                if (i > 10) { break; }
                s = s + i;
            }
            Sys.println(s);
        }
    }
    """
    assert stdout_of(src) == ["25"]  # 1+3+5+7+9


def test_nested_loops_with_break():
    src = """
    class M {
        static void main(String[] a) {
            int hits = 0;
            for (int i = 0; i < 5; i++) {
                for (int j = 0; j < 5; j++) {
                    if (j > i) { break; }
                    hits++;
                }
            }
            Sys.println(hits);
        }
    }
    """
    assert stdout_of(src) == ["15"]


def test_short_circuit_evaluation():
    src = """
    class M {
        static int calls;
        static boolean bump() { calls++; return true; }
        static void main(String[] a) {
            boolean x = false && bump();
            boolean y = true || bump();
            Sys.println(calls);
        }
    }
    """
    assert stdout_of(src) == ["0"]


def test_comparison_as_value():
    assert eval_expr("(3 < 5) == true", ty="boolean") == "1"
    assert eval_expr("!(3 < 5)", ty="boolean") == "0"


# ------------------------------------------------------------------ objects
def test_object_fields_and_methods():
    src = """
    class Counter {
        int n;
        Counter(int start) { n = start; }
        void inc() { n++; }
        int get() { return n; }
    }
    class M {
        static void main(String[] a) {
            Counter c = new Counter(10);
            c.inc(); c.inc(); c.inc();
            Sys.println(c.get());
        }
    }
    """
    assert stdout_of(src) == ["13"]


def test_inheritance_and_virtual_dispatch():
    src = """
    class Animal { String speak() { return "?"; } }
    class Dog extends Animal { String speak() { return "woof"; } }
    class Cat extends Animal { String speak() { return "meow"; } }
    class M {
        static void main(String[] a) {
            Animal x = new Dog();
            Animal y = new Cat();
            Animal z = new Animal();
            Sys.println(x.speak() + y.speak() + z.speak());
        }
    }
    """
    assert stdout_of(src) == ["woofmeow?"]


def test_inherited_fields_initialized():
    src = """
    class Base { int b = 7; }
    class Child extends Base { int c = 2; int total() { return b + c; } }
    class M {
        static void main(String[] a) {
            Sys.println(new Child().total());
        }
    }
    """
    assert stdout_of(src) == ["9"]


def test_superclass_ctor_chained():
    src = """
    class Base { int x; Base() { x = 5; } }
    class Child extends Base { }
    class M { static void main(String[] a) { Sys.println(new Child().x); } }
    """
    assert stdout_of(src) == ["5"]


def test_static_fields_and_clinit():
    src = """
    class Config { static int limit = 6 * 7; static int uses; }
    class M {
        static void main(String[] a) {
            Config.uses++;
            Config.uses++;
            Sys.println(Config.limit + ":" + Config.uses);
        }
    }
    """
    assert stdout_of(src) == ["42:2"]


def test_null_dereference_raises():
    src = """
    class A { int v; }
    class M { static void main(String[] a) { A x = null; Sys.println(x.v); } }
    """
    with pytest.raises(VMError, match="null"):
        run_mj(src)


def test_checkcast_failure_raises():
    src = """
    class A { }
    class B { }
    class M {
        static void main(String[] args) {
            Vector v = new Vector();
            v.add(new A());
            B b = (B) v.get(0);
        }
    }
    """
    with pytest.raises(VMError, match="cast"):
        run_mj(src)


def test_instanceof_runtime():
    src = """
    class A { }
    class B extends A { }
    class M {
        static void main(String[] args) {
            Object o = new B();
            Sys.println((o instanceof B) + "" + (o instanceof A) + ""
                        + (o instanceof String));
        }
    }
    """
    assert stdout_of(src) == ["110"]


# ------------------------------------------------------------------ arrays
def test_array_read_write_defaults():
    src = """
    class M {
        static void main(String[] a) {
            int[] xs = new int[4];
            xs[1] = 5;
            float[] fs = new float[2];
            Sys.println(xs[0] + "," + xs[1] + "," + fs[0] + "," + xs.length);
        }
    }
    """
    assert stdout_of(src) == ["0,5,0.0,4"]


def test_array_bounds_checked():
    src = """
    class M { static void main(String[] a) { int[] xs = new int[2]; xs[2] = 1; } }
    """
    with pytest.raises(VMError, match="out of bounds"):
        run_mj(src)
    src2 = """
    class M { static void main(String[] a) { int[] xs = new int[2]; int y = xs[-1]; } }
    """
    with pytest.raises(VMError, match="out of bounds"):
        run_mj(src2)


def test_negative_array_size():
    src = "class M { static void main(String[] a) { int[] xs = new int[0-3]; } }"
    with pytest.raises(VMError, match="negative"):
        run_mj(src)


def test_array_of_arrays():
    src = """
    class M {
        static void main(String[] a) {
            int[][] grid = new int[3][];
            for (int i = 0; i < 3; i++) { grid[i] = new int[3]; }
            grid[1][2] = 9;
            Sys.println(grid[1][2] + "," + grid[0][0]);
        }
    }
    """
    assert stdout_of(src) == ["9,0"]


def test_object_arrays():
    src = """
    class P { int v; P(int v) { this.v = v; } }
    class M {
        static void main(String[] a) {
            P[] ps = new P[3];
            ps[0] = new P(1);
            ps[2] = new P(3);
            int total = ps[0].v + ps[2].v;
            Sys.println(total + "," + (ps[1] == null));
        }
    }
    """
    assert stdout_of(src) == ["4,1"]


# ------------------------------------------------------------------ recursion
def test_recursion_factorial_and_fib():
    src = """
    class M {
        static long fact(int n) { if (n <= 1) { return 1L; } return n * fact(n - 1); }
        static int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        static void main(String[] a) {
            Sys.println(fact(20) + ":" + fib(15));
        }
    }
    """
    assert stdout_of(src) == ["2432902008176640000:610"]


def test_mutual_recursion():
    src = """
    class M {
        static boolean isEven(int n) { if (n == 0) { return true; } return isOdd(n - 1); }
        static boolean isOdd(int n) { if (n == 0) { return false; } return isEven(n - 1); }
        static void main(String[] a) { Sys.println(isEven(10) + "" + isOdd(7)); }
    }
    """
    assert stdout_of(src) == ["11"]


# ------------------------------------------------------------------ builtins
def test_string_builtins():
    src = """
    class M {
        static void main(String[] a) {
            String s = "hello world";
            Sys.println(s.length() + "," + s.indexOf("world") + ","
                        + s.substring(0, 5) + "," + s.charAt(4));
        }
    }
    """
    assert stdout_of(src) == ["11,6,hello,111"]


def test_string_equals_and_compare():
    src = """
    class M {
        static void main(String[] a) {
            String x = "abc";
            Sys.println(x.equals("abc") + "" + x.equals("abd") + ""
                        + x.compareTo("abd") + "" + "hello".hashCode());
        }
    }
    """
    assert stdout_of(src) == ["10-199162322"]  # Java's "hello".hashCode()


def test_vector_builtin():
    src = """
    class M {
        static void main(String[] a) {
            Vector v = new Vector();
            v.add(1); v.add(2); v.add(3);
            v.set(1, 9);
            int popped = (int) v.removeLast();
            Sys.println(v.size() + "," + (int) v.get(1) + "," + popped
                        + "," + v.contains(1));
        }
    }
    """
    assert stdout_of(src) == ["2,9,3,1"]


def test_vector_bounds():
    src = """
    class M { static void main(String[] a) {
        Vector v = new Vector(); v.get(0); } }
    """
    with pytest.raises(VMError, match="out of range"):
        run_mj(src)


def test_math_builtins():
    src = """
    class M {
        static void main(String[] a) {
            Sys.println(Math.sqrt(16.0) + "," + Math.imax(3, 7) + ","
                        + Math.iabs(0 - 5) + "," + Math.floor(2.9)
                        + "," + Math.pow(2.0, 10.0));
        }
    }
    """
    assert stdout_of(src) == ["4.0,7,5,2.0,1024.0"]


def test_random_deterministic():
    src = """
    class M {
        static void main(String[] a) {
            Random r1 = new Random(42L);
            Random r2 = new Random(42L);
            boolean same = true;
            for (int i = 0; i < 10; i++) {
                if (r1.nextInt(1000) != r2.nextInt(1000)) { same = false; }
            }
            Random r3 = new Random(43L);
            Sys.println(same + "," + (r1.nextInt(1000) == r3.nextInt(1000)));
        }
    }
    """
    out = stdout_of(src)
    assert out[0].startswith("1,")


def test_random_bounds():
    src = """
    class M {
        static void main(String[] a) {
            Random r = new Random(7L);
            boolean ok = true;
            for (int i = 0; i < 200; i++) {
                int v = r.nextInt(13);
                if (v < 0 || v >= 13) { ok = false; }
                float f = r.nextFloat();
                if (f < 0.0 || f >= 1.0) { ok = false; }
            }
            Sys.println(ok);
        }
    }
    """
    assert stdout_of(src) == ["1"]


def test_string_concat_of_all_types():
    src = """
    class A { }
    class M {
        static void main(String[] args) {
            String s = "v=" + 1 + "," + 1.5 + "," + true + "," + null;
            Sys.println(s);
        }
    }
    """
    assert stdout_of(src) == ["v=1,1.5,1,null"]


# ------------------------------------------------------------------ machine state
def test_cycles_and_steps_accumulate():
    m = run_mj("class M { static void main(String[] a) { int x = 0; for (int i=0;i<100;i++) { x += i; } } }")
    assert m.steps > 500
    assert m.cycles >= m.steps  # every op costs >= 1 cycle
    assert m.done


def test_missing_return_yields_default():
    src = """
    class M {
        static int f(boolean b) { if (b) { return 5; } }
        static void main(String[] a) { Sys.println(f(false) + "," + f(true)); }
    }
    """
    assert stdout_of(src) == ["0,5"]
