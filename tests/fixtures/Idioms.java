package demo.idioms;

import java.util.*;
import static java.util.Collections.emptyList;

/** One of each parser idiom: annotations, generics, lists, lambdas. */
@SuppressWarnings(value = {"unchecked", ("raw" + ("types"))})
@Deprecated
public abstract class Idioms<T extends Comparable<T>> extends Base<List<T>>
        implements Runnable, Comparable<Idioms<T>>, java.io.Serializable {

    private int[] counts;
    private int grid[][] = new int[2][3], flat[] = {1, 2};
    private List<String> names;
    private Map<String, List<String>> index;
    private Map<String, Map<String, List<String>>> nested;
    static final String LABEL = "x" + 'y';

    static {
        emptyList();
    }

    Idioms() {
        this(0);
    }

    Idioms(int size) {
        super(size);
        this.counts = new int[size];
    }

    @Override
    public abstract void run();

    protected <R> R apply(@Named("f(x)") final java.util.function.Function<T, R> f,
                          T value, String... rest) throws java.io.IOException, RuntimeException {
        int local[] = {1, 2, 3};
        try (java.io.Reader r = open(); final java.io.Reader s = open()) {
            return f.apply(value);
        } catch (final IllegalStateException | IllegalArgumentException e) {
            throw new RuntimeException(e);
        } finally {
            local[0] = local.length;
        }
    }

    int sum(int xs[], int... more) {
        int total = 0;
        for (int i = 0, j = 1; i < xs.length; i++, j--) {
            total += xs[i] << 1 >>> 2 >> 3;
        }
        for (final int m : more) {
            total = total > m ? total : (int) m;
        }
        do { total--; } while (total > 100 && !(total == 7 || total != 9));
        return total instanceof Integer ? -total : ~total;
    }

    void lambdas(List<String> xs) {
        Runnable a = () -> { return; };
        java.util.function.BinaryOperator<Integer> b = (Integer p, Integer q) -> p + q;
        java.util.function.BiFunction<String, String, String> c = (p, q) -> p.concat(q);
        java.util.function.Function<String, Integer> d = s -> s.length();
        xs.forEach(String::trim);
        xs.sort((String l, String r) -> { return l.compareTo(r); });
        new Thread(() -> run()).start();
        Object anon = new Object() {
            @Override
            public String toString() { return super.toString(); }
        };
        synchronized (this) { assert xs != null : "xs"; }
        outer();
        while (xs.isEmpty()) { break; }
    }

    int select(Color c) {
        switch (c) {
            case RED: return 1;
            case GREEN, BLUE: { return 2; }
            default: return 0;
        }
    }

    int rule(int x) {
        switch (x) {
            case 1, 2 -> x = x + 1;
            default -> { x = -x; }
        }
        return x;
    }

    enum Color {
        RED(1, (2)),
        GREEN(f(3, g(4))),
        BLUE;

        private final int[] weights;

        Color(int... weights) {
            this.weights = weights;
        }

        int weight() { return weights.length; }
    }

    enum Empty { }

    interface Shape extends Runnable, Comparable<Shape> {
        double area();
        default double twice() { return 2 * area(); }
    }

    record Range<U>(int lo, int[] hi) implements Comparable<Range<U>> {
        Range {
            check(lo);
        }
    }
}

final class Base<V> {
    Base(int size) { }
}
